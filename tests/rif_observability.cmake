# ctest script: the observability surfaces must be byte-stable.
#
#  1. `rif run <scenario> --metrics=… --trace=…` at RIF_THREADS=1/2/8
#     -> identical scenario output, metrics JSON and trace JSON, for
#     fig18_channel_usage (closed loop) and the two open-loop surfaces,
#     trace_replay (one drive) and fleet_open_loop (a fleet), which
#     carry host.arrival.* / host.queue.* and the host.queue.wait /
#     host.queue.drop events.
#  2. A two-scenario selection with --metrics=… at --jobs 1 vs 4 ->
#     identical scenario output and metrics JSON.
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

# -- 2. --jobs invariance of --metrics ----------------------------------
set(stem ${CMAKE_CURRENT_BINARY_DIR}/rif_obs)
foreach(jobs 1 4)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env RIF_THREADS=8
                ${RIF_BIN} run fig18_channel_usage fig07_timeline
                --scale 0.05 --jobs ${jobs}
                --metrics=${stem}_jm_${jobs}.json
                --out ${stem}_jout_${jobs}.txt
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "rif run --jobs ${jobs} failed (rc=${rc})")
    endif()
endforeach()
require_same(${stem}_jm_1.json ${stem}_jm_4.json
             "metrics JSON across --jobs")
require_same(${stem}_jout_1.txt ${stem}_jout_4.txt
             "scenario output across --jobs")

message(STATUS
    "rif observability: metrics/trace byte-identical at "
    "RIF_THREADS=1/2/8 (3 scenarios) and --jobs 1/4")
