# ctest script: `rif help set` must print the checked-in key reference
# byte for byte (same keys, order and help text). Regenerate with:
#   rif help set > tests/golden/help_set.txt
# Invoked as:
#   cmake -DRIF_BIN=<path to rif> -DGOLDEN=<help_set.txt> -P rif_help_set.cmake

if(NOT DEFINED RIF_BIN OR NOT DEFINED GOLDEN)
    message(FATAL_ERROR "pass -DRIF_BIN=<rif> and -DGOLDEN=<golden file>")
endif()

execute_process(COMMAND ${RIF_BIN} help set
                OUTPUT_VARIABLE actual RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "rif help set failed (rc=${rc})")
endif()
file(READ ${GOLDEN} expected)
if(NOT actual STREQUAL expected)
    message(FATAL_ERROR
        "rif help set differs from ${GOLDEN}:\n${actual}")
endif()
