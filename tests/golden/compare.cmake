# Golden-output check: runs PROGRAM and compares what it wrote byte for byte
# with the checked-in EXPECTED file.
#
#   cmake -DPROGRAM=<exe> -DEXPECTED=<file> -DACTUAL=<file>
#         [-DWRITES_FILE=ON] -P compare.cmake
#
# By default the program's stdout is captured into ACTUAL. With WRITES_FILE
# the program gets ACTUAL as its only argument and writes it itself (its
# stdout is ignored). ACTUAL is left behind for inspection on a mismatch.
foreach(var PROGRAM EXPECTED ACTUAL)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "compare.cmake: ${var} is not set")
  endif()
endforeach()

get_filename_component(actual_dir "${ACTUAL}" DIRECTORY)
file(MAKE_DIRECTORY "${actual_dir}")
file(REMOVE "${ACTUAL}")
if(WRITES_FILE)
  execute_process(COMMAND "${PROGRAM}" "${ACTUAL}"
                  OUTPUT_QUIET RESULT_VARIABLE status)
else()
  execute_process(COMMAND "${PROGRAM}"
                  OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE status)
endif()
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with status ${status}")
endif()

execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${ACTUAL}" "${EXPECTED}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "output differs from the golden copy\n"
                      "  actual:   ${ACTUAL}\n"
                      "  expected: ${EXPECTED}")
endif()
