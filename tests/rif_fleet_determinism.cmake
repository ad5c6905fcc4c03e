# ctest script: the fleet scenarios through the real `rif` driver —
# the drive-parallel simulator's acceptance gate. Each scenario runs at
# RIF_THREADS=1/2/4/8 and must produce byte-identical CSV output: drives
# precondition concurrently (as a job nested in the scenario's own when
# the scenario runs them inside a sweep) and advance between
# conservative barriers, so the worker budget may not leak into
# results. fleet_p99 additionally runs at 16
# drives (--set fleet.drives=16), the fleet-width determinism target;
# fleet_scaling also runs with a 1 us link (tiny lookahead window: many
# short rounds, the stress case for round coalescing and the epoch
# barrier), and fleet_open_loop pins the arrival-policy path.
# Invoked as:
#   cmake -DRIF_BIN=<path to rif> -P rif_fleet_determinism.cmake

if(NOT DEFINED RIF_BIN)
    message(FATAL_ERROR "pass -DRIF_BIN=<path to the rif driver>")
endif()

# scenario name, "|"-separated from any extra driver args.
set(cases
    "fleet_p99"
    "fleet_p99|--set|fleet.drives=16"
    "fleet_retry_storm"
    "fleet_scaling"
    "fleet_scaling|--set|fleet.linkUs=1"
    "fleet_open_loop"
)

foreach(case ${cases})
    string(REPLACE "|" ";" parts "${case}")
    list(GET parts 0 scenario)
    set(extra ${parts})
    list(REMOVE_AT extra 0)
    string(REPLACE ";" "_" tag "${scenario}_${extra}")
    string(REGEX REPLACE "[^A-Za-z0-9_.]" "_" tag "${tag}")

    set(outs "")
    foreach(threads 1 2 4 8)
        set(out ${CMAKE_CURRENT_BINARY_DIR}/rif_fleet_${tag}_${threads}.csv)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E env RIF_THREADS=${threads}
                    ${RIF_BIN} run ${scenario} --quick
                    --format=csv --out ${out} ${extra}
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "rif run ${scenario} ${extra} failed at "
                "RIF_THREADS=${threads} (rc=${rc})")
        endif()
        list(APPEND outs ${out})
    endforeach()

    list(GET outs 0 ref)
    foreach(out ${outs})
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E compare_files ${ref} ${out}
            RESULT_VARIABLE same)
        if(NOT same EQUAL 0)
            message(FATAL_ERROR
                "fleet output differs across thread counts: "
                "${ref} vs ${out}")
        endif()
    endforeach()
    message(STATUS
        "fleet determinism: ${scenario} ${extra} identical at "
        "RIF_THREADS=1/2/4/8")
endforeach()
