#!/usr/bin/env bash
# Static gate for the zero-allocation contract plus a clang-tidy pass.
#
#   scripts/lint.sh [build_dir]
#
# 1. Validates scripts/hot_path_manifest.txt: every line is
#    `hot <path>` or `cold <path>`, every listed file exists, and every
#    library source under the checked directories is listed (both
#    directions — the same check CMake runs at configure time).
# 2. Greps every `hot`-tagged file for heap-allocating idioms with
#    comments stripped: `new`, node-based standard containers,
#    malloc/calloc/realloc, std::function. A line may opt out with a
#    trailing `// lint:allow <reason>` comment.
# 3. Greps every library source for `[[deprecated`, comments stripped
#    as above. This repository is the library's only consumer, so an
#    API change migrates its callers in the same change; a deprecated
#    shim would only be a second path to maintain.
# 4. Runs clang-tidy (config: .clang-tidy) over the library .cc files
#    using the compile database in the build directory. If clang-tidy
#    is not installed the step is skipped with a notice unless
#    POPS_LINT_REQUIRE_CLANG_TIDY=1 (CI sets this). Set
#    POPS_LINT_SKIP_CLANG_TIDY=1 to skip explicitly (cache hits).
#
# Findings are printed as `file:line: message` (with GitHub
# `::error file=...` annotations when running under CI) and the script
# exits nonzero if anything is found. On success it prints the library
# line count (wc -l over the checked directories), which every change
# reports.
set -euo pipefail

cd "$(dirname "$0")/.."
build_dir="${1:-build}"
manifest="scripts/hot_path_manifest.txt"
checked_dirs=(graph perm pops routing serve support)
failures=0

error() {  # error <file> <line> <message>
  local file="$1" line="$2" message="$3"
  echo "${file}:${line}: error: ${message}" >&2
  if [[ -n "${GITHUB_ACTIONS:-}" ]]; then
    echo "::error file=${file},line=${line}::${message}"
  fi
  failures=$((failures + 1))
}

# --- 1. manifest validation and completeness -----------------------
if [[ ! -f "${manifest}" ]]; then
  error "${manifest}" 1 "hot-path manifest is missing"
  exit 1
fi

declare -A manifest_tag=()
line_number=0
while IFS= read -r line; do
  line_number=$((line_number + 1))
  [[ -z "${line}" || "${line}" == \#* ]] && continue
  if [[ ! "${line}" =~ ^(hot|cold)\ (.+)$ ]]; then
    error "${manifest}" "${line_number}" \
      "malformed manifest line (want 'hot <path>' or 'cold <path>'): ${line}"
    continue
  fi
  tag="${BASH_REMATCH[1]}"
  path="${BASH_REMATCH[2]}"
  if [[ ! -f "${path}" ]]; then
    error "${manifest}" "${line_number}" \
      "manifest lists nonexistent file: ${path}"
    continue
  fi
  if [[ -n "${manifest_tag[${path}]:-}" ]]; then
    error "${manifest}" "${line_number}" \
      "duplicate manifest entry: ${path}"
    continue
  fi
  manifest_tag["${path}"]="${tag}"
done < "${manifest}"

while IFS= read -r source; do
  source="${source#./}"
  if [[ -z "${manifest_tag[${source}]:-}" ]]; then
    error "${source}" 1 \
      "library source missing from ${manifest}; tag it hot or cold"
  fi
done < <(find "${checked_dirs[@]}" -name '*.cc' -o -name '*.h' | sort)

# --- 2. forbidden-token scan over hot files ------------------------
# Token list mirrors the zero-allocation contract: anything that heap
# allocates per call on the steady path. Comments are stripped first;
# `// lint:allow <reason>` on the original line opts a finding out.
forbidden='\bnew\b|std::(unordered_)?(multi)?(map|set)<|std::list<|std::forward_list<|std::deque<|\b(malloc|calloc|realloc)[[:space:]]*\(|std::function<'

for path in "${!manifest_tag[@]}"; do
  [[ "${manifest_tag[${path}]}" == hot ]] || continue
  # Strip //-comments (the codebase uses no /* */ blocks in sources),
  # then scan. Line numbers survive because sed edits in place per line.
  while IFS=: read -r lineno _; do
    [[ -n "${lineno}" ]] || continue
    original="$(sed -n "${lineno}p" "${path}")"
    if [[ "${original}" == *"lint:allow"* ]]; then
      continue
    fi
    error "${path}" "${lineno}" \
      "heap-allocating idiom in hot-path file (see ${manifest}); annotate '// lint:allow <reason>' if intentional"
  done < <(sed 's|//.*$||' "${path}" | grep -nE "${forbidden}" | cut -d: -f1 | sed 's/$/:/')
done

# --- 3. no deprecated shims in the library -------------------------
while IFS= read -r source; do
  while IFS=: read -r lineno _; do
    [[ -n "${lineno}" ]] || continue
    error "${source}" "${lineno}" \
      "[[deprecated]] in the library: migrate the callers and delete the old API instead"
  done < <(sed 's|//.*$||' "${source}" | grep -nF '[[deprecated' | cut -d: -f1 | sed 's/$/:/')
done < <(find "${checked_dirs[@]}" -name '*.cc' -o -name '*.h' | sort)

# --- 4. clang-tidy -------------------------------------------------
if [[ "${POPS_LINT_SKIP_CLANG_TIDY:-0}" == 1 ]]; then
  echo "lint: skipping clang-tidy (POPS_LINT_SKIP_CLANG_TIDY=1)"
elif ! command -v clang-tidy > /dev/null 2>&1; then
  if [[ "${POPS_LINT_REQUIRE_CLANG_TIDY:-0}" == 1 ]]; then
    error "scripts/lint.sh" 1 \
      "clang-tidy is required (POPS_LINT_REQUIRE_CLANG_TIDY=1) but not installed"
  else
    echo "lint: clang-tidy not installed; skipping the tidy pass"
  fi
elif [[ ! -f "${build_dir}/compile_commands.json" ]]; then
  error "scripts/lint.sh" 1 \
    "no compile database at ${build_dir}/compile_commands.json; configure with cmake -B ${build_dir} first"
else
  # Library sources only — the benchmark shim and third-party code are
  # out of scope (HeaderFilterRegex in .clang-tidy matches likewise).
  mapfile -t tidy_sources < <(find "${checked_dirs[@]}" -name '*.cc' | sort)
  if ! clang-tidy -p "${build_dir}" --quiet "${tidy_sources[@]}"; then
    error "scripts/lint.sh" 1 "clang-tidy reported findings (see log above)"
  fi
fi

if [[ "${failures}" -gt 0 ]]; then
  echo "lint: ${failures} finding(s)" >&2
  exit 1
fi
library_lines="$(find "${checked_dirs[@]}" -name '*.cc' -o -name '*.h' | sort | xargs cat | wc -l)"
echo "lint: clean (library: ${library_lines} lines in ${checked_dirs[*]})"
