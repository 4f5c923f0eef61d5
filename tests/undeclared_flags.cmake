# Runs netemu_fleet and netemu_query with one flag neither declares and
# expects exit 1 with exactly one stderr line naming the program and the
# flag, not a run that silently ignores it.
#
#   cmake -DFLEET=<netemu_fleet> -DQUERY=<netemu_query> -P undeclared_flags.cmake
foreach(bin ${FLEET} ${QUERY})
  get_filename_component(name ${bin} NAME)
  execute_process(
    COMMAND ${bin} --no-such-flag 3
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 10)
  if(NOT rc EQUAL 1 OR NOT err STREQUAL
     "${name}: --no-such-flag was removed or never existed\n")
    message(FATAL_ERROR "${name}: exit '${rc}', stderr: ${err}")
  endif()
endforeach()
