# Fail on an upward include: src/sim includes nothing above it (only
# util/), src/gemini includes neither flowcontrol/ nor tenancy/ (the wire
# sees its links through gemini::LinkObserver), src/ugni includes none of
# its clients or the subsystems above them (it reports to a client only
# through ugni::NicClient), and src/trace, src/converse and src/lrts
# include no tenancy/ header.
#
#   cmake -DSRC=<repo>/src -P layering_includes.cmake
set(violations "")
foreach(rule
    "sim=topo|gemini|ugni|fault|trace|mempool|converse|lrts|mpilite|flowcontrol|aggregation|tenancy|charm|apps"
    "gemini=flowcontrol|tenancy"
    "ugni=lrts|mpilite|converse|mempool|aggregation|flowcontrol|tenancy"
    "trace=tenancy" "converse=tenancy" "lrts=tenancy")
  string(REPLACE "=" ";" rule "${rule}")
  list(GET rule 0 dir)
  list(GET rule 1 above)
  file(GLOB_RECURSE files "${SRC}/${dir}/*.hpp" "${SRC}/${dir}/*.cpp")
  if(NOT files)
    message(FATAL_ERROR "no sources under ${SRC}/${dir}")
  endif()
  foreach(f IN LISTS files)
    file(STRINGS "${f}" lines REGEX "^[ \t]*#[ \t]*include[ \t]*[<\"](${above})/")
    foreach(line IN LISTS lines)
      string(APPEND violations "  ${f}: ${line}\n")
    endforeach()
  endforeach()
endforeach()
if(violations)
  message(FATAL_ERROR "upward includes:\n${violations}")
endif()
