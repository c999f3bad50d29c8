# Runs one deterministic bench in a fresh scratch directory and compares
# the JSON it writes there with the committed copy, byte for byte:
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
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${WORK_DIR}/${_json}" "${GOLDEN}"
                RESULT_VARIABLE _differs)
if(NOT _differs EQUAL 0)
  message(FATAL_ERROR
          "${WORK_DIR}/${_json} differs from the committed ${GOLDEN}. "
          "If the change is meant, copy it over the committed file and "
          "list the numbers that moved.")
endif()
