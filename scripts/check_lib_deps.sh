#!/bin/sh
# Every stanza lists only the libraries it names: for each dune file of
# lib/*/, bin/, bench/, examples/ and test/, each dphls_* entry of a
# stanza's (libraries ...) field must have its module
# (dphls_foo -> Dphls_foo) appear in at least one .ml/.mli file that
# stanza compiles. A stanza with its own (modules ...) field compiles
# the modules it names (with :standard, the directory's modules less
# those after "\"); one without compiles the whole directory. A stale
# entry links a library (and everything it pulls in) that no code of
# the stanza uses. perfbench/ is its own dune project and is not
# checked. Comments do not count as a use.
set -eu

cd "$(dirname "$0")/.."

# The stanzas of a dune file, one per line, comments dropped.
stanzas() {
  sed 's/;.*//' "$1" | tr '\n' ' ' | awk '{
    for (i = 1; i <= length($0); i++) {
      c = substr($0, i, 1)
      if (c == "(") depth++
      if (depth > 0) printf "%s", c
      if (c == ")" && --depth == 0) printf "\n"
    }
  }'
}

# The OCaml text of files $@ with comments, nested ones included,
# removed: a library named only in a comment is not used. String
# literals ("...", {|...|}) are kept, and hide comment brackets.
code() {
  awk '
  # copy the next k characters unless inside a comment
  function take(k) { if (!depth) out = out substr(line, i, k); i += k }
  {
    line = $0; out = ""; i = 1
    while (i <= length(line)) {
      c = substr(line, i, 1); d = substr(line, i, 2)
      if (str == "\"") {
        if (c == "\\") take(2)
        else { if (c == "\"") str = ""; take(1) }
      } else if (str == "|") {
        if (d == "|}") { str = ""; take(2) } else take(1)
      } else if (d == "(*") { depth++; i += 2 }
      else if (d == "*)" && depth) { depth--; i += 2 }
      else if (d == "{|") { str = "|"; take(2) }
      else if (c == "\"") { str = "\""; take(1) }
      # a character literal (a double quote among them) opens no string
      else if (c == "\047" && substr(line, i + 2, 1) == "\047") take(3)
      else if (d == "\047\\" && substr(line, i + 3, 1) == "\047") take(4)
      else take(1)
    }
    print out
  }' "$@"
}

# The .ml/.mli files of directory $1 that a stanza whose (modules ...)
# field holds the words $2 compiles (every file when $2 is empty).
files() {
  dir=$1
  set -- $2
  if [ $# -eq 0 ]; then set -- :standard; fi
  if [ "$1" = :standard ]; then
    shift
    [ "${1:-}" = '\' ] && shift
    for f in "$dir"/*.ml "$dir"/*.mli; do
      [ -e "$f" ] || continue
      base=$(basename "$f"); base=${base%.mli}; base=${base%.ml}
      case " $* " in *" $base "*) ;; *) echo "$f" ;; esac
    done
  else
    for m in "$@"; do
      for f in "$dir/$m.ml" "$dir/$m.mli"; do
        [ -e "$f" ] && echo "$f"
      done
    done
  fi
  return 0
}

report=$(
  for dune in lib/*/dune bin/dune bench/dune examples/dune test/dune; do
    dir=$(dirname "$dune")
    stanzas "$dune" | while IFS= read -r stanza; do
      # fields without nested parentheses, so the first ")" closes them
      deps=$(printf '%s\n' "$stanza" | sed -n 's/.*(libraries \([^)]*\)).*/\1/p')
      mods=$(printf '%s\n' "$stanza" | sed -n 's/.*(modules \([^)]*\)).*/\1/p' | tr -d '(')
      srcs=$(files "$dir" "$mods")
      # $srcs is a list of paths without blanks: split it
      text=$(if [ -n "$srcs" ]; then code $srcs; fi)
      for lib in $deps; do
        case "$lib" in
          dphls_*) ;;
          *) continue ;;
        esac
        first=$(printf '%s' "$lib" | cut -c1 | tr 'a-z' 'A-Z')
        module="$first$(printf '%s' "$lib" | cut -c2-)"
        if ! printf '%s\n' "$text" | grep -qw "$module"; then
          echo "UNUSED: $dune lists $lib, but no file of its stanza names $module"
        fi
      done
    done
  done
)

if [ -n "$report" ]; then
  printf '%s\n' "$report"
  echo "library dependency check failed" >&2
  exit 1
fi
echo "library dependencies OK"
