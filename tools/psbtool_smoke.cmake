# End-to-end CLI smoke test: exercises every psbtool subcommand and fails on
# any non-zero exit, then asserts the documented error exit codes (0 ok,
# 2 usage, 3 corrupt/unreadable input, 4 internal).
function(run)
  execute_process(COMMAND ${ARGV} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
  endif()
endfunction()

function(expect_rc want)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc EQUAL ${want})
    message(FATAL_ERROR "expected exit ${want}, got ${rc}: ${ARGN}\n${out}\n${err}")
  endif()
  set(last_err "${err}" PARENT_SCOPE)
endfunction()

# Run a command that writes --out twice and require byte-identical files.
function(run_twice_identical out_a out_b)
  run(${ARGN} --out ${out_a})
  run(${ARGN} --out ${out_b})
  run(${CMAKE_COMMAND} -E compare_files ${out_a} ${out_b})
endfunction()

set(DATA ${WORKDIR}/smoke_data.psb)
set(INDEX ${WORKDIR}/smoke_index.psbt)

run(${PSBTOOL} generate --type clustered --dims 8 --count 5000 --clusters 10 --out ${DATA})
run(${PSBTOOL} build --data ${DATA} --out ${INDEX} --builder kmeans --degree 32)
run(${PSBTOOL} info --data ${DATA} --index ${INDEX})
run(${PSBTOOL} query --data ${DATA} --index ${INDEX} --k 4 --num-queries 3)
run(${PSBTOOL} query --data ${DATA} --index ${INDEX} --k 4 --num-queries 3 --algo bnb)
# Every --algo, short or full engine name, is served through the BatchEngine;
# on the implicit layout the stack-free sweep walks escape indices.
run(${PSBTOOL} query --data ${DATA} --index ${INDEX} --k 4 --num-queries 3 --algo stackless_skip)
run(${PSBTOOL} query --data ${DATA} --index ${INDEX} --k 4 --num-queries 3 --algo stackless_skip
  --layout implicit)
run(${PSBTOOL} radius --data ${DATA} --index ${INDEX} --radius 100 --num-queries 2)
run(${PSBTOOL} build --data ${DATA} --out ${INDEX}.rect --builder hilbert --bounds rect)
run(${PSBTOOL} info --data ${DATA} --index ${INDEX}.rect)

# The scatter-gather, join and serving front ends; every --out JSON is
# byte-stable across runs.
set(TARGETS ${WORKDIR}/smoke_targets.psb)
run(${PSBTOOL} generate --type clustered --dims 8 --count 400 --clusters 4 --seed 9 --out ${TARGETS})
run(${PSBTOOL} query --data ${DATA} --k 4 --num-queries 3 --shards 2)
run_twice_identical(${WORKDIR}/smoke_allknn_a.json ${WORKDIR}/smoke_allknn_b.json
  ${PSBTOOL} allknn --data ${DATA} --k 4)
run(${PSBTOOL} join --data ${DATA} --targets ${TARGETS} --k 4 --variant single
  --out ${WORKDIR}/smoke_join.json)
run_twice_identical(${WORKDIR}/smoke_serve_a.json ${WORKDIR}/smoke_serve_b.json
  ${PSBTOOL} serve --data ${DATA} --index ${INDEX} --k 4 --mode both --replicas 2
  --hedge-pct 90 --duration-s 0.25)
# serve defaults to the snapshot arena; an explicit --layout overrides that
# default exactly like --snapshot does.
run(${PSBTOOL} serve --data ${DATA} --index ${INDEX} --k 4 --duration-s 0.1 --snapshot 0
  --out ${WORKDIR}/smoke_serve_snapshot0.json)
run(${PSBTOOL} serve --data ${DATA} --index ${INDEX} --k 4 --duration-s 0.1 --layout pointer
  --out ${WORKDIR}/smoke_serve_pointer.json)
run(${CMAKE_COMMAND} -E compare_files ${WORKDIR}/smoke_serve_snapshot0.json
  ${WORKDIR}/smoke_serve_pointer.json)
run(${PSBTOOL} serve --data ${DATA} --index ${INDEX} --k 4 --duration-s 0.1
  --algo stackless_skip --layout implicit)
# The documented serve example: serve spells the stream flags --rate and
# --duration-s.
run(${PSBTOOL} serve --data ${DATA} --index ${INDEX} --k 5 --mode both --rate 4000
  --duration-s 0.1 --out ${WORKDIR}/smoke_serve_example.json)

# Exit-code contract. A file of garbage bytes must be rejected as corrupt
# input (3), never parsed or crashed on; bad invocations exit 2.
file(WRITE ${WORKDIR}/smoke_garbage.psb "these bytes are not an envelope")
expect_rc(3 ${PSBTOOL} info --data ${WORKDIR}/smoke_garbage.psb --index ${INDEX})
expect_rc(3 ${PSBTOOL} query --data ${DATA} --index ${WORKDIR}/smoke_garbage.psb --k 4 --num-queries 1)
expect_rc(3 ${PSBTOOL} info --data ${WORKDIR}/does_not_exist.psb --index ${INDEX})
expect_rc(2 ${PSBTOOL} no-such-command)
expect_rc(2 ${PSBTOOL} query --data ${DATA})
expect_rc(2 ${PSBTOOL})

# A malformed number is a usage error naming its flag: never wrapped around,
# truncated to its numeric prefix, or read as zero.
function(expect_bad_number flag)
  expect_rc(2 ${ARGN})
  if(NOT last_err MATCHES "${flag}")
    message(FATAL_ERROR "usage error does not name ${flag}:\n${last_err}")
  endif()
endfunction()
expect_bad_number(--num-queries ${PSBTOOL} query --data ${DATA} --index ${INDEX} --num-queries -1)
expect_bad_number(--k ${PSBTOOL} query --data ${DATA} --index ${INDEX} --k 4x)
expect_bad_number(--iterations ${PSBTOOL} faultcamp --iterations 12abc)

# Each command accepts only the flags it reads. Another command's spelling
# (bench's --stream-rate/--stream-duration-s on serve) is a usage error naming
# the flag and the command, raised before any work: no report is written.
expect_rc(2 ${PSBTOOL} serve --data ${DATA} --index ${INDEX} --mode both --stream-rate 4000
  --stream-duration-s 0.1 --out ${WORKDIR}/smoke_serve_unknown.json)
if(NOT last_err MATCHES "unknown option --stream-(rate|duration-s) for serve")
  message(FATAL_ERROR "unknown serve flag not named:\n${last_err}")
endif()
if(EXISTS ${WORKDIR}/smoke_serve_unknown.json)
  message(FATAL_ERROR "serve wrote a report despite an unknown flag")
endif()
expect_rc(2 ${PSBTOOL} allknn --data ${DATA} --targets ${TARGETS})

# A well-formed envelope of the wrong artifact type (a dataset passed as the
# index) must also land on exit 3 via the payload-kind check — the header is
# intact, so this exercises a different branch than the garbage file.
expect_rc(3 ${PSBTOOL} info --data ${DATA} --index ${DATA})
