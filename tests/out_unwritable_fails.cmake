# A bench whose --out results file cannot be written must exit nonzero.
#
#   cmake -DBENCH=<fig04_disruptions binary> -DDIR=<scratch dir> \
#         -P out_unwritable_fails.cmake
file(REMOVE_RECURSE "${DIR}")
# A directory where the results file should go makes the write fail.
file(MAKE_DIRECTORY "${DIR}/fig04_disruptions.json")
execute_process(
  COMMAND "${BENCH}" --sizes=60 --reps=1 --warmup=60 --measure=60
          --threads=1 --progress=false --out=${DIR}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "bench exited 0 without its results file:\n${out}${err}")
endif()
if(NOT err MATCHES "FAILED to write")
  message(FATAL_ERROR "bench failed without naming the results file:\n${err}")
endif()
