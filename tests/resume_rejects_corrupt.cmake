# A bench given --resume=true and a truncated <figure>.json must fail
# before running any cell, and must leave the file as it was.
#
#   cmake -DBENCH=<fig04_disruptions binary> -DDIR=<scratch dir> \
#         -P resume_rejects_corrupt.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(json "${DIR}/fig04_disruptions.json")
set(truncated "{\"schema_version\": 3, \"figure\": \"fig04_disruptions\", \"cells\": [")
file(WRITE "${json}" "${truncated}")
execute_process(
  COMMAND "${BENCH}" --sizes=60 --reps=1 --warmup=60 --measure=60
          --threads=1 --progress=false --out=${DIR} --resume=true
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err)
if(rc EQUAL 0)
  message(FATAL_ERROR "bench accepted a corrupt resume file:\n${out}${err}")
endif()
file(READ "${json}" after)
if(NOT after STREQUAL truncated)
  message(FATAL_ERROR "bench overwrote the corrupt resume file")
endif()
if(NOT err MATCHES "cannot resume")
  message(FATAL_ERROR "bench failed without naming the resume file:\n${err}")
endif()
