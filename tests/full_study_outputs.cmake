# full_study's output contract, run as a ctest script:
#
#   cmake -DFULL_STUDY=<path to full_study> -DWORK_DIR=<scratch dir>
#         -P full_study_outputs.cmake
#
# 1. In a fresh directory, `full_study 2011 0.05` exits 0 and writes every
#    vantage point's regular and World IPv6 Day observation CSV (plus the
#    tables) into ./full_study_out/, which it must create itself.
# 2. When ./full_study_out cannot be a directory (a plain file sits at
#    that path, which blocks even a root user), it exits non-zero.
# 3. A third positional argument (`full_study 2011 0.05 spool`) exits 2
#    with the usage line, before writing anything.

if(NOT FULL_STUDY OR NOT WORK_DIR)
  message(FATAL_ERROR "need -DFULL_STUDY=... and -DWORK_DIR=...")
endif()

set(fresh "${WORK_DIR}/fresh")
file(REMOVE_RECURSE "${fresh}")
file(MAKE_DIRECTORY "${fresh}")
execute_process(COMMAND "${FULL_STUDY}" 2011 0.05
  WORKING_DIRECTORY "${fresh}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "full_study in a fresh directory exited ${rc}:\n${err}")
endif()
set(missing "")
foreach(vp Penn Comcast UPCB Tsinghua LU Go6)
  foreach(csv observations_${vp}.csv observations_${vp}_w6d.csv)
    if(NOT EXISTS "${fresh}/full_study_out/${csv}")
      list(APPEND missing ${csv})
    endif()
  endforeach()
endforeach()
foreach(csv fig1.csv table4.csv table13.csv)
  if(NOT EXISTS "${fresh}/full_study_out/${csv}")
    list(APPEND missing ${csv})
  endif()
endforeach()
if(missing)
  message(FATAL_ERROR "full_study exited 0 but did not write: ${missing}\n${err}")
endif()

set(blocked "${WORK_DIR}/blocked")
file(REMOVE_RECURSE "${blocked}")
file(MAKE_DIRECTORY "${blocked}")
file(WRITE "${blocked}/full_study_out" "not a directory\n")
execute_process(COMMAND "${FULL_STUDY}" 2011 0.05
  WORKING_DIRECTORY "${blocked}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_QUIET)
if(rc EQUAL 0)
  message(FATAL_ERROR "full_study exited 0 with an unwritable output directory")
endif()

set(extra "${WORK_DIR}/extra")
file(REMOVE_RECURSE "${extra}")
file(MAKE_DIRECTORY "${extra}")
execute_process(COMMAND "${FULL_STUDY}" 2011 0.05 spool
  WORKING_DIRECTORY "${extra}"
  RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc EQUAL 2 OR NOT err MATCHES "^usage: full_study ")
  message(FATAL_ERROR "full_study with a third positional argument exited ${rc}:\n${err}")
endif()
if(EXISTS "${extra}/full_study_out")
  message(FATAL_ERROR "full_study wrote outputs despite a usage error")
endif()

file(REMOVE_RECURSE "${fresh}" "${blocked}" "${extra}")
