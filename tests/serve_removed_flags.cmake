# Runs netemu_serve with each removed admission or executor flag and
# expects exit 1 with a one-line "was removed" message, not a daemon that
# starts silently on a different config.
#
#   cmake -DSERVE=<path to netemu_serve> -P serve_removed_flags.cmake
foreach(flag --guard --guard-budget --no-guard-adaptive --no-guard-brownout
             --guard-rate --guard-target-p95-ms --guard-brownout
             --hang-timeout-ms --offload-threads)
  execute_process(
    COMMAND ${SERVE} --port 0 --no-persist ${flag}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 10)
  if(NOT rc EQUAL 1 OR NOT err MATCHES "${flag} was removed")
    message(FATAL_ERROR "${flag}: exit '${rc}', stderr: ${err}")
  endif()
endforeach()
