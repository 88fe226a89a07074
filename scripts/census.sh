#!/usr/bin/env bash
# Reachability census (DESIGN.md "Reachability"): prints every function a
# non-test source file declares that no binary links — the six cmd/
# binaries, bench/ and the four examples are the roots. A function the
# linker keeps in no binary has no non-test caller; inlining would hide
# callees, so everything is built with -l. scripts/census.expected holds
# the output the DESIGN.md "Unreached on purpose" table accounts for, and
# scripts/ci.sh fails when the two differ.
#
# Usage: scripts/census.sh   (about ten seconds)
set -euo pipefail

cd "$(dirname "$0")/.."
export LC_ALL=C # one sort order for comm and for the expected file
T=$(mktemp -d)
trap 'rm -rf "$T"' EXIT

syms() { awk '$2 ~ /^[Tt]$/ && $3 ~ /^swift\// {print $3}' | sort -u; }
for m in $(go list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./...); do
    go build -gcflags=all=-l -o "$T/bin" "$m" && go tool nm "$T/bin"
done | syms > "$T/linked"                    # what some binary runs
go list -export -gcflags=all=-l -f '{{if ne .Name "main"}}{{.Export}}{{end}}' ./... |
    xargs -n1 go tool nm | syms > "$T/defined" # what the packages compile

# Drop what the compiler generated rather than anyone wrote: pointer-receiver
# wrappers of value methods, methods promoted through an embedded field,
# interface method stubs, generic instantiations and closures (folded into
# their parent). What is left must be declared in a non-test source file.
comm -23 "$T/defined" "$T/linked" | { grep -v '\[' || true; } |
    sed -E 's/(\.(func|deferwrap)[0-9.]+)+$//' | sort -u |
    while read -r s; do
        dir=${s%%.*} rest=${s#*.}
        case $rest in
            '(*'*) t=${rest#'(*'} pat="^func \(([a-z_]+ )?\*${t%%)*}\) ${rest##*.}\(" ;;
            *.*) pat="^func \(([a-z_]+ )?${rest%%.*}\) ${rest#*.}\(" ;;
            *) pat="^func $rest\(" ;;
        esac
        if grep -Eq "$pat" $(ls "${dir#swift/}"/*.go | grep -v _test.go); then
            echo "$s"
        fi
    done
