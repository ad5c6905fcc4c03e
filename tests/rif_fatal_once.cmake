# ctest script: a configuration error that every worker of a parallel
# sweep hits at once must print exactly one `[fatal]` line (the first
# caller of fatal() wins, the others block until the process exits).
# The race is timing-dependent, so the run repeats.
# Invoked as:
#   cmake -DRIF_BIN=<path to rif> -P rif_fatal_once.cmake

if(NOT DEFINED RIF_BIN)
    message(FATAL_ERROR "pass -DRIF_BIN=<path to the rif driver>")
endif()

foreach(attempt RANGE 1 10)
    # The oversized footprint fails in every drive's precondition, on
    # all four workers.
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env RIF_THREADS=4
                ${RIF_BIN} run fleet_open_loop --scale 0.05 --no-cache
                --set geometry.pagesPerBlock=3
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err)
    if(rc EQUAL 0)
        message(FATAL_ERROR "run ${attempt} succeeded; expected a fatal")
    endif()
    string(REGEX MATCHALL "\\[fatal\\]" lines "${out}${err}")
    list(LENGTH lines n)
    if(NOT n EQUAL 1)
        message(FATAL_ERROR
            "run ${attempt} printed ${n} [fatal] lines, expected 1:\n${err}")
    endif()
endforeach()

message(STATUS "rif fatal: one [fatal] line in each of 10 parallel runs")
