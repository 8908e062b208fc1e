#!/usr/bin/env bash
# Compare what the command line writes at a git revision and in the working
# tree: every artifact, standard output, standard error and exit code of a
# fixed set of runs (mesh, forward, probe, reconstruct on meshes 50 and 200,
# a 2 x 2 sweep, four configs with a null value, and four with a value of
# the wrong JSON type: a list for reconstruction.damping, a number for
# probes.radii, a string for mesh.radius and a boolean for
# reconstruction.max_iterations).
#
#   tools/compare_artifacts.sh REV
#
# REV is unpacked with git archive into a temporary directory, and each side
# runs from its own src/. config_echo.json is compared without
# output.directory. Prints one line per run and a summary; exits 1 when
# anything differs, 0 when everything is byte-identical.
set -euo pipefail

rev=${1:?usage: tools/compare_artifacts.sh REV}
python=${PYTHON:-python3}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/rev-checkout" "$work/configs"
git -C "$root" archive "$rev" | tar -x -C "$work/rev-checkout"

# name, command and config of every run
runs=(
  "mesh mesh {}"
  "forward forward {}"
  'probe probe {"boundary": {"condition": "neumann"}, "frequencies": {"k1": 0.35, "k2": 0.1, "m": null}}'
  "reconstruct-m50 reconstruct {}"
  'reconstruct-m200 reconstruct {"mesh": {"n_boundary_points": 200}, "frequencies": {"m": 3}}'
  'sweep sweep {"frequencies": {"m": [1, 3]}, "mesh": {"n_boundary_points": [50, 100]}}'
  'null-annulus reconstruct {"phantom": {"annulus_radius": null}}'
  'null-mesh reconstruct {"mesh": {"n_boundary_points": null}}'
  'null-damping reconstruct {"reconstruction": {"damping": null}}'
  'null-gamma-tilde probe {"probes": {"gamma_tilde": null}, "boundary": {"condition": "neumann"}}'
  'type-damping reconstruct {"reconstruction": {"damping": [1.0]}}'
  'type-radii probe {"probes": {"radii": 0.4}, "boundary": {"condition": "neumann"}}'
  'type-radius mesh {"mesh": {"radius": "8"}}'
  'type-max-iterations reconstruct {"reconstruction": {"max_iterations": true}}'
)

run_side() {  # side, src directory
  local side=$1 src=$2 entry name command config dir
  for entry in "${runs[@]}"; do
    read -r name command config <<< "$entry"
    dir="$work/$side/$name"
    mkdir -p "$dir"
    printf '%s\n' "$config" > "$work/configs/$name.json"
    set +e
    PYTHONPATH="$src" "$python" -m helmpert "$command" \
      --config "$work/configs/$name.json" --out "$dir/out" \
      > "$dir/stdout" 2> "$dir/stderr"
    echo $? > "$dir/exit_code"
    set -e
    if [ -f "$dir/out/config_echo.json" ]; then
      "$python" - "$dir/out/config_echo.json" <<'PY'
import json, sys
path = sys.argv[1]
with open(path) as fh:
    doc = json.load(fh)
doc["output"].pop("directory", None)
with open(path, "w") as fh:
    json.dump(doc, fh, indent=2, sort_keys=True)
    fh.write("\n")
PY
    fi
  done
}

run_side rev "$work/rev-checkout/src"
run_side tree "$root/src"

differ=0
for entry in "${runs[@]}"; do
  read -r name _ <<< "$entry"
  files=$(cd "$work/tree/$name" && find . -type f | wc -l)
  if diff -r "$work/rev/$name" "$work/tree/$name" > "$work/$name.diff"; then
    echo "same     $name ($files files)"
  else
    differ=1
    echo "DIFFERS  $name"
    sed "s|$work/||g" "$work/$name.diff" | head -n 40
  fi
done
if [ "$differ" -eq 0 ]; then
  echo "every run is byte-identical to $rev"
else
  echo "some runs differ from $rev"
fi
exit "$differ"
