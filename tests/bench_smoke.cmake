# Runs ext_multi_tree at smoke scale and validates its results JSON.
#
#   cmake -DBENCH=<ext_multi_tree binary> -DPYTHON=<python3>
#         -DVALIDATOR=<scripts/validate_results.py> -DDIR=<scratch dir>
#         -P bench_smoke.cmake
file(REMOVE_RECURSE "${DIR}")
execute_process(
  COMMAND "${BENCH}" --sizes=500 --grow=600 --measure=600 --reps=1
          --threads=1 --progress=false --out=${DIR}
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ext_multi_tree exited with ${rc}")
endif()
execute_process(
  COMMAND "${PYTHON}" "${VALIDATOR}" "${DIR}/ext_multi_tree.json"
          --require-metric stall_ratio
  RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "ext_multi_tree.json failed validation")
endif()
