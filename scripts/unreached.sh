#!/usr/bin/env bash
# Lists the functions that no binary reaches. Every main package in the
# module (cmd/*, examples/*, bench) is linked with inlining off and the
# linker's dependency dump on; each non-test function declared in the
# module whose symbol is in none of the dumps is printed as
#
#   georep/internal/pkg.(*Type).Method  internal/pkg/file.go:LINE  LINES
#
# where LINES counts the function with its doc comment, followed by a
# total on stderr. Inlining must be off: an inlined call leaves no edge
# to its callee, and the list would fill with false positives.
#
# With -check, it prints only the listed functions missing from
# scripts/unreached.allow, and the allow lines naming a function that is
# reached or gone, and exits 1 if there are any: the list can shrink but
# not grow. An allow line is "<symbol> <reason>"; '#' starts a comment.
#
# Usage: scripts/unreached.sh [-check]
set -euo pipefail
cd "$(dirname "$0")/.."

check=0
if [[ "${1:-}" == "-check" ]]; then check=1; fi

mod=$(go list -m)
short=${mod##*/}
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Reachable symbols, with generic instantiations folded onto their
# declaration. A main package's functions link as main.*, so they are
# renamed to the package's directory to stay apart across binaries.
for dir in $(go list -f '{{if eq .Name "main"}}{{.Dir}}{{end}}' ./...); do
  rel=${dir#"$PWD/"}
  go build -gcflags=all=-l -ldflags=-dumpdep -o /dev/null "./$rel" 2>&1 |
    awk -v main="$mod/$rel." 'i = index($0, " -> ") {
      s = substr($0, i + 4)
      while (match(s, /\[[^][]*\]/)) s = substr(s, 1, RSTART - 1) substr(s, RSTART + RLENGTH)
      if (s ~ /^main\./) s = main substr(s, 6)
      print s
    }' >>"$tmp/reached"
done

# Declared functions, read from gofmt-formatted source: a declaration
# starts at "func " in column 0 and ends at the first "}" in column 0.
go list -f '{{$d := .Dir}}{{range .GoFiles}}{{$d}}/{{.}}{{"\n"}}{{end}}' ./... |
  while read -r file; do
    rel=${file#"$PWD/"}
    pkg=$mod/$(dirname "$rel")
    awk -v pkg="${pkg%/.}" -v rel="$rel" '
      function emit(end) {
        if (fn != "init") print pkg "." recv fn, rel ":" at, end - start + 1
        open = 0
      }
      open { if (/^}/) emit(NR); next }
      /^\/\// { if (!doc) doc = NR; next }
      /^func / {
        line = substr($0, 6); recv = ""
        if (line ~ /^\(/) {
          r = substr(line, 2, index(line, ")") - 2)
          line = substr(line, index(line, ")") + 2)
          sub(/\[.*/, "", r)
          n = split(r, w, " "); t = w[n]
          recv = (t ~ /^\*/) ? "(" t ")." : t "."
        }
        match(line, /^[A-Za-z0-9_]+/); fn = substr(line, 1, RLENGTH)
        at = NR; start = doc ? doc : NR; doc = 0; open = 1
        if (/}$/) emit(NR)
        next
      }
      { doc = 0 }
    ' "$file"
  done >"$tmp/declared"

awk -v mod="$mod" -v short="$short" -v check="$check" '
  FILENAME == ARGV[1] { reached[$1] = 1; next }
  FILENAME == ARGV[2] { sub(/#.*/, ""); if (NF) allowed[$1] = 1; next }
  !($1 in reached) {
    sym = short substr($1, length(mod) + 1)
    listed[sym] = 1
    if (check && sym in allowed) next
    printf "%-60s %s %d\n", sym, $2, $3
    n++; lines += $3
  }
  END {
    if (!check) {
      printf "%d functions, %d lines\n", n, lines > "/dev/stderr"
      exit 0
    }
    for (sym in allowed) {
      if (!(sym in listed)) {
        printf "%-60s reached or gone: delete its allow line\n", sym
        stale++
      }
    }
    printf "%d unreached functions outside the allow file, %d stale allow lines\n", n, stale > "/dev/stderr"
    exit (n + stale > 0)
  }
' "$tmp/reached" scripts/unreached.allow "$tmp/declared"
