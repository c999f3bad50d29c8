# Runs one bench in a fresh scratch directory and compares the JSON it
# writes there with the committed copy, byte for byte up to the top-level
# `host` member (host-dependent values; always the last member):
#
#   cmake -DBENCH=<bench executable> -DWORK_DIR=<scratch dir>
#         -DGOLDEN=<repo>/BENCH_<name>.json -P bench_output_check.cmake
get_filename_component(_json "${GOLDEN}" NAME)
file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
execute_process(COMMAND "${BENCH}"
                WORKING_DIRECTORY "${WORK_DIR}"
                RESULT_VARIABLE _rc
                OUTPUT_VARIABLE _out
                ERROR_VARIABLE _out)
if(NOT _rc EQUAL 0)
  message(FATAL_ERROR "${BENCH} exited ${_rc}:\n${_out}")
endif()

function(_read_up_to_host path out_var)
  file(READ "${path}" _text)
  string(FIND "${_text}" "\n  \"host\": " _at)
  if(_at GREATER -1)
    string(SUBSTRING "${_text}" 0 ${_at} _text)
  endif()
  set(${out_var} "${_text}" PARENT_SCOPE)
endfunction()

_read_up_to_host("${WORK_DIR}/${_json}" _fresh)
_read_up_to_host("${GOLDEN}" _committed)
if(NOT _fresh STREQUAL _committed)
  message(FATAL_ERROR
          "${WORK_DIR}/${_json} differs from the committed ${GOLDEN} above "
          "its `host` member. If the change is meant, copy it over the "
          "committed file and list the numbers that moved.")
endif()
