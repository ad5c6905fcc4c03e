# ctest script: the observability surfaces must be byte-stable.
#
#  1. `rif run <scenario> --metrics=… --trace=…` at RIF_THREADS=1/2/8
#     -> identical scenario output, metrics JSON and trace JSON, for
#     fig18_channel_usage (closed loop) and the two open-loop surfaces,
#     trace_replay (one drive) and fleet_open_loop (a fleet), which
#     carry host.arrival.* / host.queue.* and the host.queue.wait /
#     host.queue.drop events.
#  2. A two-scenario selection with --metrics=… --trace=… at
#     RIF_THREADS=1/2/8 -> identical scenario output, metrics JSON and
#     trace JSON. The scenarios run concurrently at 2 and 8 threads,
#     each on its own track base, so they never share a trace row.
#
# Invoked as:
#   cmake -DRIF_BIN=<path to rif> -P rif_observability.cmake

if(NOT DEFINED RIF_BIN)
    message(FATAL_ERROR "pass -DRIF_BIN=<path to the rif driver>")
endif()

function(require_same ref out what)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${ref} ${out}
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR "${what} differs: ${ref} vs ${out}")
    endif()
endfunction()

# -- 1. thread-count invariance of --metrics and --trace ----------------
foreach(scenario fig18_channel_usage trace_replay fleet_open_loop)
    set(stem ${CMAKE_CURRENT_BINARY_DIR}/rif_obs_${scenario})
    foreach(threads 1 2 8)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E env RIF_THREADS=${threads}
                    ${RIF_BIN} run ${scenario} --scale 0.05
                    --metrics=${stem}_m_${threads}.json
                    --trace=${stem}_t_${threads}.json
                    --out ${stem}_out_${threads}.txt
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "rif run ${scenario} failed at RIF_THREADS=${threads} "
                "(rc=${rc})")
        endif()
    endforeach()
    foreach(threads 2 8)
        require_same(${stem}_m_1.json ${stem}_m_${threads}.json
                     "${scenario} metrics JSON across RIF_THREADS")
        require_same(${stem}_t_1.json ${stem}_t_${threads}.json
                     "${scenario} trace JSON across RIF_THREADS")
        require_same(${stem}_out_1.txt ${stem}_out_${threads}.txt
                     "${scenario} output across RIF_THREADS")
    endforeach()
endforeach()

# -- 2. a concurrent two-scenario selection -----------------------------
set(stem ${CMAKE_CURRENT_BINARY_DIR}/rif_obs_pair)
foreach(threads 1 2 8)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env RIF_THREADS=${threads}
                ${RIF_BIN} run fig18_channel_usage fig07_timeline
                --scale 0.05
                --metrics=${stem}_m_${threads}.json
                --trace=${stem}_t_${threads}.json
                --out ${stem}_out_${threads}.txt
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "rif run of the pair failed at RIF_THREADS=${threads} "
            "(rc=${rc})")
    endif()
endforeach()
foreach(threads 2 8)
    require_same(${stem}_m_1.json ${stem}_m_${threads}.json
                 "two-scenario metrics JSON across RIF_THREADS")
    require_same(${stem}_t_1.json ${stem}_t_${threads}.json
                 "two-scenario trace JSON across RIF_THREADS")
    require_same(${stem}_out_1.txt ${stem}_out_${threads}.txt
                 "two-scenario output across RIF_THREADS")
endforeach()

message(STATUS
    "rif observability: metrics/trace byte-identical at "
    "RIF_THREADS=1/2/8 (3 scenarios and a concurrent pair)")
