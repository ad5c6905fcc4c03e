# ctest script: run a scenario selection through the real `rif` driver
# and require byte-identical CSV output
#  - at RIF_THREADS=1/2/8 (the scenarios run as concurrent jobs on the
#    worker team, their inner loops nested in them), and
#  - with a cold disk cache, a warm disk cache and --no-cache, each at
#    RIF_THREADS=4.
# Invoked as:
#   cmake -DRIF_BIN=<path to rif> -P rif_jobs.cmake

if(NOT DEFINED RIF_BIN)
    message(FATAL_ERROR "pass -DRIF_BIN=<path to the rif driver>")
endif()

# Cheap scenarios spanning the cached artifact kinds (curve fits,
# calibrations, accuracy sweeps), one parallel SSD sweep, and the two
# open-loop workload-engine scenarios (trace streaming + offered-load
# sweep must stay byte-identical across threads and cache states too).
set(scenarios fig04_retention fig11_14_rp_accuracy ablation_tpred
    table01_config trace_replay fleet_open_loop)

function(run_rif out threads)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E env RIF_THREADS=${threads}
                ${RIF_BIN} run ${scenarios} --scale 0.02 --format=csv
                --out ${out} ${ARGN}
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "rif run failed for ${out} (RIF_THREADS=${threads}, "
            "flags: ${ARGN}, rc=${rc})")
    endif()
endfunction()

set(ref ${CMAKE_CURRENT_BINARY_DIR}/rif_jobs_ref.csv)
run_rif(${ref} 1)

set(outs "")
foreach(threads 2 8)
    set(out ${CMAKE_CURRENT_BINARY_DIR}/rif_jobs_${threads}.csv)
    run_rif(${out} ${threads})
    list(APPEND outs ${out})
endforeach()

set(cache_dir ${CMAKE_CURRENT_BINARY_DIR}/rif_jobs_cache)
file(REMOVE_RECURSE ${cache_dir})
set(cold ${CMAKE_CURRENT_BINARY_DIR}/rif_jobs_cold.csv)
set(warm ${CMAKE_CURRENT_BINARY_DIR}/rif_jobs_warm.csv)
set(nocache ${CMAKE_CURRENT_BINARY_DIR}/rif_jobs_nocache.csv)
run_rif(${cold} 4 --cache-dir ${cache_dir})
run_rif(${warm} 4 --cache-dir ${cache_dir})
run_rif(${nocache} 4 --no-cache)
list(APPEND outs ${cold} ${warm} ${nocache})

foreach(out ${outs})
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files ${ref} ${out}
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        message(FATAL_ERROR
            "scenario output differs from the one-thread "
            "reference: ${ref} vs ${out}")
    endif()
endforeach()

message(STATUS
    "rif jobs/cache determinism: identical at RIF_THREADS=1/2/8, cold "
    "disk cache, warm disk cache and --no-cache")
