#!/bin/sh
# Every CLI given must answer a bad option with `<program>: <reason>` on
# stderr and exit status 1, instead of aborting on an uncaught exception.
# The first one must be mcs_exp, which is also given malformed numbers.
#
# usage: bad_options.sh <mcs_exp> <other CLI>...
failures=0

# expect <message> <command>...: exit status 1 and `<program>: <message>`.
expect() {
  message=$1
  shift
  program=$(basename "$1")
  stderr=$("$@" 2>&1 >/dev/null)
  status=$?
  if [ "$status" -ne 1 ]; then
    echo "FAIL: $program $2 exited $status, want 1"
    failures=$((failures + 1))
  fi
  case $stderr in
    *"$program: $message"*) ;;
    *)
      echo "FAIL: $program $2 printed no '$program: $message':"
      echo "$stderr"
      failures=$((failures + 1))
      ;;
  esac
}

for binary in "$@"; do
  expect "unknown option '--bogus-option'" "$binary" --bogus-option 1
done
expect "option --trials expects an integer, got 'abc'" "$1" --trials abc
expect "option --trials expects an integer, got '-1'" "$1" --trials -1
if [ "$failures" -ne 0 ]; then
  exit 1
fi
echo "$# CLIs exit 1 on bad options"
