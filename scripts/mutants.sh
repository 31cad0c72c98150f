#!/usr/bin/env bash
# Mutant catalogue runner: applies each mutant in a catalogue file
# (default testdata/mutants.txt) to an in-memory copy of its source file
# through `go test -overlay`, runs the named tests, and fails if a mutant
# survives, is killed by some other test than the one it names, or no
# longer applies (its original text is gone, ambiguous, or the mutant
# does not compile). The tree itself is never edited.
#
#   scripts/mutants.sh [catalogue]        # every record
#   MUTANTS=regexp scripts/mutants.sh     # only records whose id matches
#
# A record, one field per line ('#' lines and blank lines between
# records are ignored):
#
#   mutant <id>
#   file <path relative to the repository root>
#   pkgs <package pattern>...
#   run <go test -run regexp>
#   race yes|no
#   timeout <go duration>      (optional; default 60s)
#   killer <TestName>|timeout
#   <<<
#   <original text, whole lines, exactly once in the file>
#   ===
#   <replacement text, possibly no lines>
#   >>>
#
# killer names the test whose FAIL line must appear (or, when run selects
# that test alone, whose run crashes the binary), or "timeout" when the
# mutant is killed by go test's -timeout (a hang); either way the test
# run must fail.
set -u

catalogue=${1:-testdata/mutants.txt}
only=${MUTANTS:-}
root=$(pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

killed=0
failed=0

# run_one applies the record held in the globals and reports its fate.
run_one() {
	if [[ -n $only && ! $id =~ $only ]]; then
		return
	fi
	local src rest mutated out code started took fate
	if [[ ! -f $file ]]; then
		echo "BROKEN   $id: no file $file"
		failed=$((failed + 1))
		return
	fi
	src=$(<"$file")
	rest=${src#*"$orig"}
	if [[ $rest == "$src" ]]; then
		echo "BROKEN   $id: original text not found in $file"
		failed=$((failed + 1))
		return
	fi
	if [[ $rest == *"$orig"* ]]; then
		echo "BROKEN   $id: original text occurs more than once in $file"
		failed=$((failed + 1))
		return
	fi
	mutated=${src%%"$orig"*}$repl$rest
	printf '%s\n' "$mutated" >"$tmp/mutant.go"
	printf '{"Replace":{"%s":"%s"}}\n' "$root/$file" "$tmp/mutant.go" >"$tmp/overlay.json"
	local flags=(-overlay "$tmp/overlay.json" -count=1 -timeout "$timeout" -run "$run")
	if [[ $race == yes ]]; then
		flags+=(-race)
	fi
	started=$SECONDS
	# shellcheck disable=SC2086 # pkgs is a list of patterns
	out=$(go test "${flags[@]}" $pkgs 2>&1)
	code=$?
	took=$((SECONDS - started))
	if [[ $out == *"[build failed]"* || $out == *"[setup failed]"* ]]; then
		fate="BROKEN   $id: the mutant does not compile"
	elif ((code == 0)); then
		fate="SURVIVED $id: go test passed with the mutant (${took}s)"
	elif [[ $killer == timeout ]]; then
		if [[ $out == *"panic: test timed out"* ]]; then
			echo "KILLED   $id by timeout (${took}s)"
			killed=$((killed + 1))
			return
		fi
		fate="MISMATCH $id: failed without timing out, record says timeout (${took}s)"
	elif grep -Eq -- "--- FAIL: $killer( |/)" <<<"$out"; then
		echo "KILLED   $id by $killer (${took}s)"
		killed=$((killed + 1))
		return
	elif [[ $out == *"fatal error: "* && $run == "^$killer\$" ]]; then
		# A runtime crash (say, a concurrent map write) prints no FAIL
		# line; run selects the killer alone, so the crash is its.
		echo "KILLED   $id by $killer, crashed (${took}s)"
		killed=$((killed + 1))
		return
	else
		fate="MISMATCH $id: killed, but not by $killer (${took}s)"
	fi
	echo "$fate"
	grep -E -- '^(--- FAIL|FAIL|panic:|.*\.go:[0-9]+:)' <<<"$out" | head -n 5 | sed 's/^/         /'
	failed=$((failed + 1))
}

state=head
lineno=0
while IFS= read -r line || [[ -n $line ]]; do
	lineno=$((lineno + 1))
	case $state in
	head)
		case $line in
		'mutant '*)
			id=${line#mutant }
			file='' pkgs='' run='' race='' killer='' timeout=60s
			;;
		'file '*) file=${line#file } ;;
		'pkgs '*) pkgs=${line#pkgs } ;;
		'run '*) run=${line#run } ;;
		'race '*) race=${line#race } ;;
		'timeout '*) timeout=${line#timeout } ;;
		'killer '*) killer=${line#killer } ;;
		'<<<')
			if [[ -z ${id:-} || -z $file || -z $pkgs || -z $run || -z $killer || ! $race =~ ^(yes|no)$ ]]; then
				echo "$catalogue:$lineno: record ${id:-?} lacks a field" >&2
				exit 2
			fi
			state=orig orig='' repl=''
			;;
		'' | '#'*) ;;
		*)
			echo "$catalogue:$lineno: unexpected line: $line" >&2
			exit 2
			;;
		esac
		;;
	orig)
		if [[ $line == '===' ]]; then
			orig=${orig%$'\n'}
			state=repl
		else
			orig+=$line$'\n'
		fi
		;;
	repl)
		if [[ $line == '>>>' ]]; then
			repl=${repl%$'\n'}
			run_one
			state=head id=''
		else
			repl+=$line$'\n'
		fi
		;;
	esac
done <"$catalogue"
if [[ $state != head ]]; then
	echo "$catalogue: last record is not closed with >>>" >&2
	exit 2
fi

echo "mutants: $killed killed, $failed failed"
((failed == 0 && killed > 0))
