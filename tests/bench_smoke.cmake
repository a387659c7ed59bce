# Runs a bench binary at smoke scale and validates its results JSON.
#
#   cmake -DBENCH=<bench binary> "-DARGS=<bench flags, space-separated>"
#         -DJSON=<results file name> -DMETRIC=<metric the file must carry>
#         -DPYTHON=<python3> -DVALIDATOR=<scripts/validate_results.py>
#         -DDIR=<scratch dir> -P bench_smoke.cmake
file(REMOVE_RECURSE "${DIR}")
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
  COMMAND "${BENCH}" ${args} --progress=false --out=${DIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited with ${rc}")
endif()
execute_process(
  COMMAND "${PYTHON}" "${VALIDATOR}" "${DIR}/${JSON}"
          --require-metric ${METRIC}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${JSON} failed validation")
endif()
