# scenario_cli must reject an unknown --selection, --mode or --format value
# (exit non-zero, naming the value) instead of running a default.
#
#   cmake -DCLI=<scenario_cli binary> -P cli_rejects_bad_enum.cmake
foreach(flag selection mode format)
  execute_process(
    COMMAND "${CLI}" --topology=tiny --population=20 --warmup=10
            --measure=10 --stream=1 --${flag}=bogus
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "scenario_cli accepted --${flag}=bogus:\n${out}${err}")
  endif()
  if(NOT err MATCHES "unknown ${flag} 'bogus'")
    message(FATAL_ERROR "scenario_cli failed without naming --${flag}:\n${err}")
  endif()
endforeach()
