"""Span recorder for the traced benchmark run.

The recorder wraps functions of the `vpstab` modules from outside the
package: each name is replaced in every module namespace (or on the class)
where a caller looks it up, and the originals are put back when the
`installed()` block ends. Spans (name, layer, start, end, parent, phase,
case) are kept in memory and written out by the runner at exit. Nothing
under `src/` is changed, and the untraced run never installs a wrapper.
"""

import contextlib
import dataclasses
import functools
import inspect
import sys
import time
import weakref
# (layer, name) pairs; a dotted name is an attribute of a class in the layer's
# module, and "linalg.eigh" is scipy's dense eigensolver as `spectral` calls it.
TARGETS = (
    ("numerics", "solve_profile_ode"),
    ("numerics", "eig_tridiag"),
    ("numerics", "make_1d_grid"),
    ("numerics", "make_grids"),
    ("numerics", "gl_points"),
    ("numerics", "jacobi_integral"),
    ("numerics", "turning_point_integral"),
    ("steady_state", "king_model"),
    ("steady_state", "build_king"),
    ("steady_state", "phase_space_density"),
    ("steady_state", "SteadyStateModel.potential"),
    ("steady_state", "PhaseSpaceDensity.rho"),
    ("steady_state", "PhaseSpaceDensity.mass"),
    ("steady_state", "PhaseSpaceDensity.kinetic"),
    ("poisson", "solve_poisson_radial"),
    ("poisson", "field_energy"),
    ("poisson", "grad_distance2"),
    ("poisson", "potential_distance"),
    ("poisson", "check_X_membership"),
    ("poisson", "grad_distance2_shifted"),
    ("poisson", "PotentialX.from_model"),
    ("poisson", "PotentialX.from_callable"),
    ("rearrangement", "distribution_function"),
    ("rearrangement", "schwarz_rearrangement"),
    ("rearrangement", "generalized_rearrangement"),
    ("rearrangement", "JacobianMap.__init__"),
    ("rearrangement", "JacobianMap.a_inv"),
    ("rearrangement", "ModelRearrangement.__init__"),
    ("rearrangement", "ModelRearrangement.l1_distance"),
    ("rearrangement", "MonotoneRearrangement.l1_distance"),
    ("functionals", "hamiltonian"),
    ("functionals", "reduced_functional"),
    ("functionals", "monotonicity_gaps"),
    ("functionals", "stability_lower_bound"),
    ("spectral", "energy_mesh"),
    ("spectral", "harmonic_operator_spectrum"),
    ("spectral", "coercivity_constant"),
    ("spectral", "modulation_shift"),
    ("spectral", "_SectorMatrices.projector_correction"),
    ("spectral", "linalg.eigh"),
    ("evolver", "sample_particles"),
    ("evolver", "evolve"),
    ("evolver", "stability_sweep"),
    ("evolver", "orbital_distance"),
    ("evolver", "conservation_report"),
    ("evolver", "_Binner.density"),
    ("evolver", "ParticleEnsemble.kinetic"),
    ("evolver", "ParticleEnsemble.mass"),
    ("evolver", "ParticleEnsemble.casimir"),
    ("perturbations", "padded_phase_density"),
    ("perturbations", "bump_perturbation"),
    ("perturbations", "equimeasurable_scramble"),
    ("perturbations", "velocity_squeeze"),
)

LAYERS = (
    "numerics", "steady_state", "poisson", "rearrangement",
    "functionals", "spectral", "evolver", "perturbations",
)

# Builders of objects that depend only on what they are built from: the
# index of that input among the call's arguments, and whether the product is
# the call's result or its `self`. A build counts as model-scoped when its
# input is the model or another model-scoped product.
BUILDERS = {
    "steady_state.SteadyStateModel.potential": (0, "result"),
    "steady_state.phase_space_density": (0, "result"),
    "rearrangement.JacobianMap.__init__": (1, "self"),
    "rearrangement.ModelRearrangement.__init__": (1, "self"),
    "spectral.energy_mesh": (0, "result"),
}

# Spans inside `evolve` that make up its diagnostics records.
DIAGNOSTICS = (
    "evolver.orbital_distance",
    "poisson.field_energy",
    "poisson.grad_distance2",
    "evolver.ParticleEnsemble.kinetic",
    "evolver.ParticleEnsemble.mass",
    "evolver.ParticleEnsemble.casimir",
)


@dataclasses.dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    phase: str
    case: int | None = None
    info: dict | None = None

    @property
    def duration(self):
        return self.end - self.start


class Recorder:
    """In-memory span store with a call stack for parent links."""

    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self.case = None
        self._stack = []
        # weak values: an entry leaves with its object, so a reused id
        # never reads as model-scoped
        self._derived = weakref.WeakValueDictionary()

    def mark_derived(self, obj):
        """Record obj as model-scoped."""
        self._derived[id(obj)] = obj

    def _is_derived(self, obj):
        return id(obj) in self._derived

    def wrap(self, name, layer, fn):
        rec = self
        builder = BUILDERS.get(name)
        signature = inspect.signature(fn) if name in ("evolver.evolve", "spectral.coercivity_constant") else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = Span(name, layer, 0.0, 0.0, rec._stack[-1] if rec._stack else None, rec.phase, rec.case)
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if builder is not None:
                index, product = builder
                if index < len(args) and rec._is_derived(args[index]):
                    span.info = {"model_scoped": True}
                    rec.mark_derived(result if product == "result" else args[0])
            elif signature is not None:
                span.info = _call_info(name, signature, args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, phase):
        """Wrap every target for the duration of the block."""
        self.phase = phase
        patches = [(owner, attr, original, self._wrapped(layer, name, original))
                   for layer, name, owner, attr, original in bindings()]
        try:
            for owner, attr, _, wrapped in patches:
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, original, _ in reversed(patches):
                setattr(owner, attr, original)
            self.case = None

    def _wrapped(self, layer, name, original):
        span_name = f"{layer}.{name}"
        if name == "linalg.eigh":
            return _ModuleProxy(original, eigh=self.wrap("spectral.dense_eigh", layer, original.eigh))
        if isinstance(original, staticmethod):
            return staticmethod(self.wrap(span_name, layer, original.__func__))
        return self.wrap(span_name, layer, original)

    def to_json(self):
        return [dataclasses.asdict(s) for s in self.spans]


class _ModuleProxy:
    """A module seen through one replaced attribute."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def _call_info(name, signature, args, kwargs, result):
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    params = bound.arguments
    if name == "spectral.coercivity_constant":
        return {"n": int(params["n"])}
    steps = int(round(params["t_end"] / params["dt"]))
    return {
        "steps": steps,
        "particle_steps": int(params["ens"].n) * steps,
        "records": len(result.times),
        "reflections": int(result.reflections),
        "aborted": int(result.aborted),
    }


def bindings():
    """Every place a target is looked up: (layer, name, owner, attribute,
    original). A plain function is patched in each namespace that binds it,
    among the `vpstab` modules and the benchmark's `workloads`; a class
    attribute is patched on the class; scipy's `eigh` is patched by replacing
    `spectral.linalg`."""
    found = []
    modules = [m for n, m in sorted(sys.modules.items())
               if n in ("vpstab", "workloads") or n.startswith("vpstab.")]
    for layer, name in TARGETS:
        module = sys.modules[f"vpstab.{layer}"]
        if name == "linalg.eigh":
            found.append((layer, name, module, "linalg", module.linalg))
        elif "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(module, cls_name)
            found.append((layer, name, cls, attr, cls.__dict__[attr]))
        else:
            fn = getattr(module, name)
            for m in modules:
                for attr, value in vars(m).items():
                    if value is fn:
                        found.append((layer, name, m, attr, fn))
    return found


def _covered(intervals, lo, hi):
    """Length of the union of intervals clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans):
    """Each span's duration minus the part of it that its children cover."""
    children = [[] for _ in spans]
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [s.duration - _covered(kids, s.start, s.end) for s, kids in zip(spans, children)]


def unit_of(name):
    """Unit of a per-layer metric, read off its name."""
    for suffix, unit in (("_ms_per_step", "ms/step"), ("_ms_per_record", "ms/record"),
                         ("_ms_per_case", "ms/case"), ("_per_case", "count/case")):
        if name.endswith(suffix):
            return unit
    return "s" if name.endswith("_s") or "_s." in name else "count"


def layer_metrics(rec, cases, solve_s, untraced_solve_s):
    """Per-layer metrics of the traced solve phase (plus the set-up stages)."""
    spans = rec.spans
    own = self_times(spans)
    solve = [i for i, s in enumerate(spans) if s.phase == "solve"]
    setup = [i for i, s in enumerate(spans) if s.phase == "setup"]

    def pick(names, among=solve):
        names = (names,) if isinstance(names, str) else names
        return [i for i in among if spans[i].name in names]

    def total(names, among=solve):
        return sum(spans[i].duration for i in pick(names, among))

    def calls(names):
        return len(pick(names))

    evolves = [i for i in pick("evolver.evolve") if spans[i].info]
    steps = sum(spans[i].info["steps"] for i in evolves)
    records = sum(spans[i].info["records"] for i in evolves)
    evolve_set = set(evolves)

    def per_step_ms(seconds):
        return 1e3 * seconds / steps if steps else 0.0

    def under_evolve(names):
        return sum(spans[i].duration for i in pick(names) if spans[i].parent in evolve_set)

    out = {f"{layer}.self_s": sum(own[i] for i in solve if spans[i].layer == layer) for layer in LAYERS}
    out.update({
        "numerics.profile_ode_s": total("numerics.solve_profile_ode", setup),
        "steady_state.model_build_s": total("steady_state.king_model", setup),
        "steady_state.potential_calls": calls("steady_state.SteadyStateModel.potential"),
        "steady_state.phase_density_calls": calls("steady_state.phase_space_density"),
        "steady_state.phase_density_s": total("steady_state.phase_space_density"),
        "poisson.from_model_s": total("poisson.PotentialX.from_model"),
        "rearrangement.jacobian_builds": calls("rearrangement.JacobianMap.__init__"),
        "rearrangement.jacobian_s": total("rearrangement.JacobianMap.__init__"),
        "rearrangement.model_rearrangement_builds": calls("rearrangement.ModelRearrangement.__init__"),
        "rearrangement.model_rearrangement_s": total("rearrangement.ModelRearrangement.__init__"),
        "rearrangement.model_rebuilds_per_case":
            sum(1 for i in solve if spans[i].info and spans[i].info.get("model_scoped")) / max(cases, 1),
        "rearrangement.bathtub_s":
            total(("rearrangement.distribution_function", "rearrangement.schwarz_rearrangement")),
        "rearrangement.generalized_s": total("rearrangement.generalized_rearrangement"),
        "rearrangement.a_inv_calls": calls("rearrangement.JacobianMap.a_inv"),
        "rearrangement.a_inv_s": total("rearrangement.JacobianMap.a_inv"),
        "rearrangement.l1_distance_s":
            total(("rearrangement.ModelRearrangement.l1_distance", "rearrangement.MonotoneRearrangement.l1_distance")),
        "poisson.solve_radial_calls": calls("poisson.solve_poisson_radial"),
        "poisson.solve_radial_s": total("poisson.solve_poisson_radial"),
        "poisson.potential_distance_calls": calls("poisson.potential_distance"),
        "poisson.potential_distance_s": total("poisson.potential_distance"),
        "poisson.grad_distance2_calls": calls("poisson.grad_distance2"),
        "poisson.field_energy_s": total("poisson.field_energy"),
        "functionals.hamiltonian_calls": calls("functionals.hamiltonian"),
        "functionals.hamiltonian_s": total("functionals.hamiltonian"),
        "functionals.lower_bound_self_s": sum(own[i] for i in pick("functionals.stability_lower_bound")),
        "functionals.monotonicity_self_s": sum(own[i] for i in pick("functionals.monotonicity_gaps")),
        "spectral.energy_mesh_calls": calls("spectral.energy_mesh"),
        "spectral.energy_mesh_s": total("spectral.energy_mesh"),
        "spectral.projector_correction_s": total("spectral._SectorMatrices.projector_correction"),
        "spectral.dense_eigh_calls": calls("spectral.dense_eigh"),
        "spectral.dense_eigh_s": total("spectral.dense_eigh"),
        "numerics.eig_tridiag_s": total("numerics.eig_tridiag"),
    })
    for n in (800, 1600, 3200):
        out[f"spectral.coercivity_s.n{n}"] = sum(
            spans[i].duration for i in pick("spectral.coercivity_constant") if (spans[i].info or {}).get("n") == n
        )
    out.update({
        "evolver.particle_steps": sum(spans[i].info["particle_steps"] for i in evolves),
        "evolver.sample_s": total("evolver.sample_particles"),
        "evolver.deposit_ms_per_step": per_step_ms(total("evolver._Binner.density")),
        "evolver.field_solve_ms_per_step": per_step_ms(under_evolve("poisson.solve_poisson_radial")),
        "evolver.push_ms_per_step": per_step_ms(sum(own[i] for i in evolves)),
        "evolver.diagnostics_ms_per_record": 1e3 * under_evolve(DIAGNOSTICS) / records if records else 0.0,
        "evolver.reflections": sum(spans[i].info["reflections"] for i in evolves),
        "evolver.aborted": sum(spans[i].info["aborted"] for i in evolves),
        "perturbations.generate_ms_per_case": 1e3 * sum(
            spans[i].duration for i in solve
            if spans[i].layer == "perturbations"
            and (spans[i].parent is None or spans[spans[i].parent].layer != "perturbations")
        ) / max(cases, 1),
        "trace.unattributed_s": solve_s - sum(own[i] for i in solve),
        "trace.overhead_s": solve_s - untraced_solve_s,
    })
    return out
