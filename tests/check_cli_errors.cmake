# Error-path contract of the evsys CLI, run under ctest (see
# tests/CMakeLists.txt):
#   unknown verb           -> exit 2, stderr enumerates every valid verb
#   unknown template kind  -> exit 2, stderr enumerates the template kinds
#   explicit 'template scenario' and bare 'template' -> identical output
#   malformed, out-of-range, below-minimum or missing flag value, unknown
#   flag, stray argument   -> exit 2, stderr names the flag and the value
#   unwritable output      -> exit 1, stderr names the destination
#   oversized fleet.stations -> exit 1, stderr names the key and its maximum
# Expects -DEVSYS=<path to the evsys binary> and -DSOURCE_DIR=<repo root>.
if(NOT DEFINED EVSYS OR NOT DEFINED SOURCE_DIR)
  message(FATAL_ERROR "pass -DEVSYS=<binary> -DSOURCE_DIR=<repo root>")
endif()
set(scn "${SOURCE_DIR}/examples/scenarios/city_commute.scn")
set(fleet "${SOURCE_DIR}/examples/scenarios/depot_fleet.fleet")
set(overloaded "${SOURCE_DIR}/tests/data/overloaded.scn")

execute_process(
  COMMAND "${EVSYS}" frobnicate
  RESULT_VARIABLE code
  ERROR_VARIABLE err
  OUTPUT_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "unknown verb: expected exit 2, got ${code}")
endif()
if(NOT err MATCHES "unknown command 'frobnicate'")
  message(FATAL_ERROR "unknown verb: stderr does not name the bad verb:\n${err}")
endif()
foreach(verb IN ITEMS campaign check fleet print run synthesize template)
  if(NOT err MATCHES "${verb}")
    message(FATAL_ERROR "unknown verb: stderr does not list '${verb}':\n${err}")
  endif()
endforeach()
message(STATUS "unknown verb enumerates all valid verbs")

execute_process(
  COMMAND "${EVSYS}" template starship
  RESULT_VARIABLE code
  ERROR_VARIABLE err
  OUTPUT_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "unknown template kind: expected exit 2, got ${code}")
endif()
if(NOT err MATCHES "unknown template kind 'starship'")
  message(FATAL_ERROR "unknown template kind: bad stderr:\n${err}")
endif()
foreach(kind IN ITEMS scenario fleet)
  if(NOT err MATCHES "${kind}")
    message(FATAL_ERROR "unknown template kind: stderr does not list '${kind}':\n${err}")
  endif()
endforeach()
message(STATUS "unknown template kind enumerates scenario and fleet")

execute_process(
  COMMAND "${EVSYS}" template
  RESULT_VARIABLE code
  OUTPUT_VARIABLE bare)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "bare 'template' failed with ${code}")
endif()
execute_process(
  COMMAND "${EVSYS}" template scenario
  RESULT_VARIABLE code
  OUTPUT_VARIABLE explicit)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "'template scenario' failed with ${code}")
endif()
if(NOT bare STREQUAL explicit)
  message(FATAL_ERROR "'template' and 'template scenario' outputs differ")
endif()
message(STATUS "'template scenario' matches bare 'template'")

execute_process(
  COMMAND "${EVSYS}"
  RESULT_VARIABLE code
  OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "no arguments: expected exit 2, got ${code}")
endif()
message(STATUS "bare invocation exits 2 with usage")

# Bad flags: each case is "<expected stderr regex>|<verb and arguments>".
foreach(case IN ITEMS
    "'--seed'.*'7x'|synthesize|${overloaded}|--seed|7x"
    "'--iters'.*'4O'|synthesize|${overloaded}|--iters|4O"
    "'--stride'.*'-1'|campaign|${scn}|--stride|-1"
    "'--seeds'.*'2x'|campaign|${scn}|--seeds|2x"
    "'--jobs'.*'-3'|fleet|${fleet}|--jobs|-3"
    "'--count'.*'abc'|fuzz|--count|abc"
    "'--seed'.*'99999999999999999999'|fuzz|--seed|99999999999999999999"
    "'--out' needs a value|run|${scn}|--out"
    "unexpected argument '--bogus'|check|${scn}|--bogus"
    "unexpected argument 'extra'|fuzz|extra")
  string(REPLACE "|" ";" args "${case}")
  list(POP_FRONT args expected)
  execute_process(
    COMMAND "${EVSYS}" ${args}
    RESULT_VARIABLE code
    ERROR_VARIABLE err
    OUTPUT_QUIET)
  if(NOT code EQUAL 2)
    message(FATAL_ERROR "evsys ${args}: expected exit 2, got ${code}")
  endif()
  if(NOT err MATCHES "${expected}")
    message(FATAL_ERROR "evsys ${args}: stderr does not match '${expected}':\n${err}")
  endif()
endforeach()
message(STATUS "malformed flags exit 2 and name the flag and value")

# --jobs 0 (one per hardware thread) stays a valid value.
execute_process(
  COMMAND "${EVSYS}" fleet "${fleet}" --jobs 0
  RESULT_VARIABLE code
  OUTPUT_QUIET ERROR_QUIET)
if(NOT code EQUAL 0)
  message(FATAL_ERROR "fleet --jobs 0: expected exit 0, got ${code}")
endif()
message(STATUS "--jobs 0 is accepted")

# A station count past the stated maximum is refused by validation (exit 1,
# naming the key) before anything is sized by it.
file(READ "${fleet}" fleet_text)
string(REGEX REPLACE "\nfleet\\.stations = [0-9]+" "\nfleet.stations = 99999999999"
       huge_text "${fleet_text}")
if(huge_text STREQUAL fleet_text)
  message(FATAL_ERROR "could not rewrite fleet.stations in ${fleet}")
endif()
set(huge_fleet "${CMAKE_CURRENT_BINARY_DIR}/huge_stations.fleet")
file(WRITE "${huge_fleet}" "${huge_text}")
execute_process(
  COMMAND "${EVSYS}" fleet "${huge_fleet}"
  RESULT_VARIABLE code
  ERROR_VARIABLE err
  OUTPUT_QUIET)
if(NOT code EQUAL 1 OR NOT err MATCHES "fleet\\.stations must not exceed 1000000")
  message(FATAL_ERROR "fleet.stations = 99999999999: expected exit 1 naming the key, got "
                      "${code}:\n${err}")
endif()
message(STATUS "an oversized fleet.stations is a typed error")

# A full device accepts the open but fails the write: every verb must notice.
if(EXISTS /dev/full)
  foreach(case IN ITEMS
      "check|${scn}|--out|/dev/full"
      "fleet|${fleet}|--out|/dev/full"
      "fuzz|--count|1|--no-shrink|--out|/dev/full"
      "synthesize|${overloaded}|--iters|2|--report|/dev/full")
    string(REPLACE "|" ";" args "${case}")
    execute_process(
      COMMAND "${EVSYS}" ${args}
      RESULT_VARIABLE code
      ERROR_VARIABLE err
      OUTPUT_QUIET)
    if(NOT code EQUAL 1 OR NOT err MATCHES "cannot write '/dev/full'")
      message(FATAL_ERROR "evsys ${args}: expected exit 1 naming /dev/full, got "
                          "${code}:\n${err}")
    endif()
  endforeach()
  execute_process(
    COMMAND "${EVSYS}" print "${scn}"
    RESULT_VARIABLE code
    OUTPUT_FILE /dev/full
    ERROR_QUIET)
  if(NOT code EQUAL 1)
    message(FATAL_ERROR "print to a full stdout: expected exit 1, got ${code}")
  endif()
  message(STATUS "unwritable outputs exit 1")
endif()
