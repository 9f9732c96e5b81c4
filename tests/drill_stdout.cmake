# Runs the deterministic `lmo chaos` drills and compares each one's stdout
# and exit code byte-for-byte with tests/data/drill_stdout/<drill>.txt.
#
#   cmake -DLMO=<path to lmo> -DDATA_DIR=<tests/data/drill_stdout> \
#         -P drill_stdout.cmake
#
# Run it from a scratch directory: a drill whose output differs leaves the
# new output in <drill>.actual there. kill-resume writes its checkpoint,
# lmo_kill_resume.ckpt, into the working directory and must remove it once
# it resumed; the check fails if the file is left behind. The fault-profile
# drills (flaky-pcie, congested, dead-prefetch, oom) print their wall-clock
# tok/s on stderr, which is not compared. The forking crash drill is not
# pinned here.
set(drills
  kill-resume.dense kill-resume.window shared-prefix.dense
  bitflip diskfault overload adaptive
  flaky-pcie congested dead-prefetch oom)

set(checkpoint lmo_kill_resume.ckpt)
file(REMOVE ${checkpoint})
set(failed "")
foreach(drill IN LISTS drills)
  string(REPLACE "." ";" parts "${drill}")
  list(GET parts 0 profile)
  set(extra "")
  list(LENGTH parts n)
  if(n EQUAL 2)
    list(GET parts 1 kv)
    set(extra --kv ${kv})
  endif()
  execute_process(
    COMMAND "${LMO}" chaos --profile ${profile} ${extra}
    OUTPUT_VARIABLE out
    RESULT_VARIABLE code)
  set(actual "${out}exit ${code}\n")
  set(expected "")
  if(EXISTS "${DATA_DIR}/${drill}.txt")
    file(READ "${DATA_DIR}/${drill}.txt" expected)
  endif()
  if(NOT actual STREQUAL expected)
    file(WRITE "${drill}.actual" "${actual}")
    list(APPEND failed ${drill})
  endif()
endforeach()

if(EXISTS ${checkpoint})
  list(APPEND failed "kill-resume (left ${checkpoint} behind)")
endif()

if(failed)
  message(FATAL_ERROR "drill stdout differs for: ${failed} "
                      "(new output in <drill>.actual)")
endif()
