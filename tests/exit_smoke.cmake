# exit-smoke: a profiled process must exit cleanly while the memtrack
# sampler still runs. exit_check leaks a TrackedBuffer, so the sampler
# thread keeps flushing its RSS counter into the trace sink until static
# destruction joins it; the sink must outlive that join. The race is
# timing-dependent, so the program runs many times and every exit must
# be 0. Driven from tests/CMakeLists.txt via:
#   cmake -DEXIT_CHECK=... -DWORK_DIR=... [-DRUNS=n] -P exit_smoke.cmake

foreach(var EXIT_CHECK WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "exit_smoke: missing -D${var}=...")
  endif()
endforeach()
if(NOT DEFINED RUNS)
  set(RUNS 50)
endif()

set(TRACE "${WORK_DIR}/exit_smoke_trace.json")
set(ENV{SVSIM_PROFILE} "${TRACE}")
set(ENV{SVSIM_MEMTRACK_MS} 1)
foreach(i RANGE 1 ${RUNS})
  file(REMOVE "${TRACE}")
  execute_process(
    COMMAND "${EXIT_CHECK}"
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    # A crash's flight-recorder dump runs to hundreds of lines; its head
    # names the signal.
    string(SUBSTRING "${err}" 0 1500 err_head)
    message(FATAL_ERROR "exit_smoke: run ${i} of ${RUNS} exited ${rc}\n"
            "stdout:\n${out}\nstderr (head):\n${err_head}")
  endif()
endforeach()
message(STATUS "exit_smoke: ${RUNS} profiled runs exited 0")
