#!/bin/sh
# Every library lists only the libraries it names: for each lib/*/dune,
# each dphls_* entry of its (libraries ...) field must have its module
# (dphls_foo -> Dphls_foo) appear in at least one .ml/.mli file of that
# directory. A stale entry links a library (and everything it pulls in)
# that no code of the directory uses.
set -eu

cd "$(dirname "$0")/.."

fail=0
for dune in lib/*/dune; do
  dir=$(dirname "$dune")
  # the (libraries ...) field, which may span lines: join the file into
  # one line, then keep the words between "(libraries" and its ")"
  deps=$(tr '\n' ' ' < "$dune" | sed -n 's/.*(libraries \([^)]*\)).*/\1/p')
  for lib in $deps; do
    case "$lib" in
      dphls_*) ;;
      *) continue ;;
    esac
    first=$(printf '%s' "$lib" | cut -c1 | tr 'a-z' 'A-Z')
    module="$first$(printf '%s' "$lib" | cut -c2-)"
    if ! grep -qw "$module" "$dir"/*.ml "$dir"/*.mli 2>/dev/null; then
      echo "UNUSED: $dune lists $lib, but no file in $dir names $module"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "library dependency check failed" >&2
  exit 1
fi
echo "library dependencies OK"
