# Runs CLI with ARGS and passes only if it exits 2 and FLAG appears on
# its `error:` line. The usage table printed after that line lists every
# flag, so a match against the whole output would prove nothing.
#
#   cmake -DCLI=path/to/collapois_cli "-DARGS=--shards;0" -DFLAG=--shards \
#         -P expect_cli_rejects.cmake
get_filename_component(tool "${CLI}" NAME)
string(REPLACE ";" " " shown "${ARGS}")
execute_process(COMMAND ${CLI} ${ARGS}
                RESULT_VARIABLE code
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "${tool} ${shown}: exit ${code}, expected 2\n${err}")
endif()
string(REGEX MATCH "error: [^\n]*" error_line "${err}")
string(FIND "${error_line}" "${FLAG}" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "${tool} ${shown}: '${FLAG}' missing from '${error_line}'")
endif()
