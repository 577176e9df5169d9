#!/usr/bin/env bash
# Hostile command lines for fsjoin_cli: integer flags with a sign, junk or
# a value past their type must end in the usage line (exit 2), and a
# non-finite --theta must be refused with a Status (exit 1) — never a
# crash from a wrapped size or an abort deep in the join.
set -uo pipefail
cli=$1

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
printf 'a b c d\na b c e\nx y z\n' > "$tmp/corpus.txt"

fail=0
expect() {
  local want=$1 pattern=$2
  shift 2
  local got=0
  "$cli" --input "$tmp/corpus.txt" "$@" > "$tmp/out" 2> "$tmp/err" || got=$?
  local ok=1
  [[ "$got" == "$want" ]] || ok=0
  if [[ -n "$pattern" ]] && ! grep -q -- "$pattern" "$tmp/err"; then ok=0; fi
  if [[ "$ok" == 0 ]]; then
    echo "FAIL: fsjoin_cli $* -> exit $got (want $want, stderr ~ '$pattern')"
    cat "$tmp/err"
    fail=1
  fi
}

for flag in --threads --fragments --horizontal --morsel --task-retries \
            --spawn-local-workers --heartbeat-ms; do
  expect 2 usage "$flag" -1
  expect 2 usage "$flag" +1
  expect 2 usage "$flag" 3x
  expect 2 usage "$flag" ""
  expect 2 usage "$flag" 99999999999999999999999
done
expect 2 usage --fragments 4294967296
expect 2 usage --heartbeat-ms 2147483648
expect 2 usage --threads
expect 1 "bad qgram size" --tokenizer qgram-2
for theta in nan inf -inf; do
  expect 1 theta --theta "$theta"
done

# The well-formed line still joins: records 0 and 1 are 3/5 similar.
expect 0 "" --theta 0.6 --threads 2 --fragments 3
if ! grep -q '^0 1 0.600000$' "$tmp/out"; then
  echo "FAIL: expected pair '0 1 0.600000', got:"
  cat "$tmp/out"
  fail=1
fi
exit "$fail"
