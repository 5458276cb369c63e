#!/usr/bin/env bash
# Compare two ways of running the command line, bit for bit.
#
#   tests/compare_cli.sh CMD_A CMD_B
#   tests/compare_cli.sh kirchflow "env PYTHONPATH=src python -m kirchflow"
#
# Runs 18 invocations under each command prefix: run, run --stride 1,
# diagnose, recover, mms, probe-uniqueness, probe-uniqueness --seed 7,
# demo-overshoot and dump-constitutive, each with the default config and
# with {"stepping": {"gamma": 0.0}}.  For each it compares the exit code, stdout
# and stderr (with the --out directory replaced by OUT) and the output trees
# (diff -r), and prints "same: <invocation>" or "DIFF: <invocation>" followed
# by the differences.  Exits 1 on any difference.  Each prefix is split on
# whitespace, so none of its words may hold a space.
set -u
if [ $# -ne 2 ]; then
  echo "usage: $0 CMD_A CMD_B" >&2
  exit 2
fi
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
echo '{"stepping": {"gamma": 0.0}}' > "$work/gamma0.json"

# run prefix $1 with the invocation words $2 and --out $3; record its exit
# code, stdout and stderr in $3.txt
record() {
  local out=$3 code=0
  $1 $2 "${args[@]}" --out "$out" > "$out.stdout" 2> "$out.stderr" || code=$?
  {
    echo "exit code $code"
    sed "s|$out|OUT|g" "$out.stdout"
    echo "stderr:"
    sed "s|$out|OUT|g" "$out.stderr"
  } > "$out.txt"
}

status=0
n=0
for config in default gamma0; do
  args=()
  if [ "$config" = gamma0 ]; then
    args=(--config "$work/gamma0.json")
  fi
  for invocation in run "run --stride 1" diagnose recover mms probe-uniqueness \
      "probe-uniqueness --seed 7" demo-overshoot dump-constitutive; do
    n=$((n + 1))
    a="$work/a$n" b="$work/b$n"
    record "$1" "$invocation" "$a"
    record "$2" "$invocation" "$b"
    label="$invocation${args[*]:+ --config gamma0.json}"
    # a refused invocation makes no output directory: then neither may
    if diff "$a.txt" "$b.txt" > "$work/diff" \
        && { [ ! -e "$a" ] && [ ! -e "$b" ] || diff -r "$a" "$b" >> "$work/diff"; }; then
      echo "same: $label"
    else
      echo "DIFF: $label"
      head -n 40 "$work/diff"
      status=1
    fi
  done
done
exit $status
