#!/usr/bin/env bash
# Compare what the command line writes at a git revision and in the working
# tree: every artifact, standard output, standard error and exit code of a
# fixed set of runs (mesh, forward, probe, reconstruct on meshes 50 and 200,
# a 2 x 2 sweep, four configs with a null value, and four with a value of
# the wrong JSON type: a list for reconstruction.damping, a number for
# probes.radii, a string for mesh.radius and a boolean for
# reconstruction.max_iterations, and seven with a value no run can use: a
# negative reconstruction.gamma_guess, a zero reconstruction.damping, a
# negative frequencies.k1, a probe disk past the interior zone, a negative
# phantom conductivity for reconstruct and for sweep, and a NaN
# reconstruction.eps_precision), a solver failure: Neumann forward at
# k1 = 0, a reconstruct on mesh 52 (a ring of its nodes lies on the known
# annulus circle r = 6), a sweep that repeats a frequencies.m and a
# mesh.n_boundary_points value, and three frequencies whose squares overflow
# a double: a reconstruct at frequencies.m = 200, a forward at
# frequencies.k1 = 1e200 and a sweep over frequencies.m = [3, 400].
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
  'bad-gamma-guess reconstruct {"reconstruction": {"gamma_guess": -1.0}}'
  'zero-damping reconstruct {"reconstruction": {"damping": 0.0}}'
  'negative-k1 reconstruct {"frequencies": {"k1": -1.0, "k2": 0.1}}'
  'outside-zone-probe probe {"boundary": {"condition": "neumann"}, "probes": {"centers": [[5.9, 0.0]]}}'
  'negative-conductivity reconstruct {"phantom": {"conductivity": {"background": -1.0}}}'
  'negative-conductivity-sweep sweep {"phantom": {"conductivity": {"background": -1.0}}, "frequencies": {"m": [1, 3]}, "mesh": {"n_boundary_points": [50]}}'
  'nan-eps-precision reconstruct {"reconstruction": {"eps_precision": NaN}}'
  'flux-zero-k1 forward {"boundary": {"condition": "neumann"}, "frequencies": {"k1": 0.0, "k2": 1.0, "m": null}}'
  'reconstruct-m52 reconstruct {"mesh": {"n_boundary_points": 52}}'
  'repeated-values sweep {"frequencies": {"m": [3, 3]}, "mesh": {"n_boundary_points": [30, 30]}}'
  'overflow-m200 reconstruct {"frequencies": {"m": 200}}'
  'overflow-k1 forward {"frequencies": {"k1": 1e200, "k2": 0.1}}'
  'overflow-sweep-m400 sweep {"frequencies": {"m": [3, 400]}}'
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
    head -n 40 "$work/$name.diff" | sed "s|$work/||g"
  fi
done
if [ "$differ" -eq 0 ]; then
  echo "every run is byte-identical to $rev"
else
  echo "some runs differ from $rev"
fi
exit "$differ"
