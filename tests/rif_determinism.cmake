# ctest script: run simulation scenarios through the real `rif`
# driver at RIF_THREADS=1/2/8 and require byte-identical CSV output.
# The swept set covers the three substrate families: the event-driven
# simulator (ablation_tpred) and the two analytic NAND-chain studies
# (qlc_retry, rvs_cadence). A final pass runs the analytic pair in one
# invocation at RIF_THREADS=1 vs 4 to pin scenario-level parallelism.
# Invoked as:
#   cmake -DRIF_BIN=<path to rif> -P rif_determinism.cmake

if(NOT DEFINED RIF_BIN)
    message(FATAL_ERROR "pass -DRIF_BIN=<path to the rif driver>")
endif()

foreach(scenario ablation_tpred qlc_retry rvs_cadence)
    set(outs "")
    foreach(threads 1 2 8)
        set(out ${CMAKE_CURRENT_BINARY_DIR}/rif_det_${scenario}_${threads}.csv)
        execute_process(
            COMMAND ${CMAKE_COMMAND} -E env RIF_THREADS=${threads}
                    ${RIF_BIN} run ${scenario} --scale 0.02 --format=csv
                    --out ${out}
            RESULT_VARIABLE rc)
        if(NOT rc EQUAL 0)
            message(FATAL_ERROR
                "rif run ${scenario} failed at RIF_THREADS=${threads} "
                "(rc=${rc})")
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
                "scenario output differs across thread counts: "
                "${ref} vs ${out}")
        endif()
    endforeach()

    message(STATUS
        "rif determinism: ${scenario} identical at RIF_THREADS=1/2/8")
endforeach()

# Scenario-level parallelism: the analytic pair in one invocation must
# emit the same bytes whether the scenarios run one after the other or
# as concurrent jobs on the worker team.
set(jobs_outs "")
foreach(threads 1 4)
    set(out ${CMAKE_CURRENT_BINARY_DIR}/rif_det_pair_${threads}.csv)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env RIF_THREADS=${threads}
                ${RIF_BIN} run qlc_retry rvs_cadence --scale 0.02
                --format=csv --out ${out}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "rif run qlc_retry rvs_cadence failed at "
            "RIF_THREADS=${threads} (rc=${rc})")
    endif()
    list(APPEND jobs_outs ${out})
endforeach()
list(GET jobs_outs 0 jobs_ref)
list(GET jobs_outs 1 jobs_out)
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files ${jobs_ref} ${jobs_out}
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR
        "qlc_retry+rvs_cadence output differs between RIF_THREADS=1 "
        "and 4")
endif()

message(STATUS
    "rif determinism: qlc_retry+rvs_cadence identical at "
    "RIF_THREADS=1/4")
