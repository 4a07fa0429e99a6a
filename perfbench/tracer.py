"""Outside-in spans and counters around the public names the pipeline calls.

Nothing under ``src/`` knows about tracing: :func:`install` replaces
module attributes and ``OscillatorModel`` methods with wrappers that
open a span or bump a counter and then call the original.  Spans stay in
memory; the caller writes them out once the run has ended.

A counter bumped while spans are open is credited to the run total and
to every open span name, so ``adjoint.verify`` gets the Jacobian calls
made anywhere below ``verify_basis``.  Counts derived from a call's
result land after its own span has closed, so only the enclosing spans
get them.
"""

import functools
import inspect
import time


class Tracer:
    """In-memory span list plus counters credited to the open spans."""

    def __init__(self, trace_id):
        self.trace_id = trace_id
        self.spans = []    # dicts: id, parent, name, start, end
        self.totals = {}   # counter -> n
        self.by_span = {}  # span name -> {counter -> n}
        self._stack = []   # open span ids
        self._open = {}    # open span name -> [depth, totals at entry]

    def count(self, counter, n=1):
        self.totals[counter] = self.totals.get(counter, 0) + n

    def _enter(self, name):
        span = {"id": len(self.spans), "trace": self.trace_id,
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None}
        self.spans.append(span)
        self._stack.append(span["id"])
        self._open.setdefault(name, [0, dict(self.totals)])[0] += 1
        return span

    def _exit(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()
        entry = self._open[span["name"]]
        entry[0] -= 1
        if entry[0]:
            return
        # outermost span of this name: credit what the counters gained
        del self._open[span["name"]]
        bucket = self.by_span.setdefault(span["name"], {})
        for counter, n in self.totals.items():
            gained = n - entry[1].get(counter, 0)
            if gained:
                bucket[counter] = bucket.get(counter, 0) + gained

    def traced(self, name, fn, counter=None, on_call=None):
        """``fn`` wrapped in a span; ``on_call(tracer, bound_args, result)``
        derives extra counts from the call's arguments or result."""
        sig = inspect.signature(fn) if on_call else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if counter:
                self.count(counter)
            if on_call:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                on_call(self, bound.arguments, result)
            return result

        return wrapper

    def counted(self, counter, fn):
        """``fn`` wrapped so every call bumps ``counter``; no span."""
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[counter] = totals.get(counter, 0) + 1
            return fn(*args, **kwargs)

        return wrapper


def _newton(tracer, args, cyc):
    tracer.count("cycle.newton_iters", len(cyc.residuals))


def _adjoint_periods(tracer, args, result):
    tracer.count("adjoint.adjoint_periods", len(result[2]))


def _ode_steps(tracer, args, traj):
    tracer.count("ode.steps", len(traj.ts) - 1)


def _sde_steps(tracer, args, result):
    tracer.count("stochastic.path_steps",
                 args["n_paths"] * int(round(args["t_end"] / args["dt"])))


def _fp_steps(tracer, args, result):
    tracer.count("stochastic.fp_steps",
                 int(round(args["t_end"] / args["dt"])))


def _lock_points(tracer, args, lockmap):
    tracer.count("phase.lock_points", len(lockmap.rows))


def install(tracer):
    """Wrap the pipeline's public names in place; returns an undo callable."""
    from planar_ppv import (adjoint, cli, diliberto, isochron, models, ode,
                            phase, stochastic)

    saved = []

    def patch(owner, attr, wrapper):
        saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def span(owner, attr, name, **kw):
        patch(owner, attr, tracer.traced(name, getattr(owner, attr), **kw))

    span(cli, "load_config", "config.load")
    span(cli, "find_cycle", "cycle.find_cycle", on_call=_newton)
    span(diliberto.DilibertoBasis, "__init__", "diliberto.basis")
    span(diliberto, "orthogonality_defect", "diliberto.orthogonality_defect")
    span(adjoint, "verify_basis", "adjoint.verify")
    span(adjoint, "state_transition", "adjoint.state_transition",
         counter="adjoint.state_transition_calls")
    span(adjoint, "numeric_ppv", "adjoint.numeric_ppv",
         on_call=_adjoint_periods)
    span(phase, "ppv_fourier", "phase.ppv_fourier")
    span(phase, "injection_lock_scan", "phase.lock_scan",
         on_call=_lock_points)
    span(phase, "simulate_phase", "phase.simulate_phase",
         counter="phase.simulate_phase_calls")
    span(stochastic, "simulate_sde_ensemble", "stochastic.sde",
         on_call=_sde_steps)
    span(stochastic, "solve_fp", "stochastic.fp", on_call=_fp_steps)
    span(stochastic, "diffusion_summary", "stochastic.diffusion_summary",
         counter="stochastic.diffusion_summary_calls")
    span(isochron, "isochron_experiment", "isochron.experiment")
    span(ode, "integrate", "ode.integrate", counter="ode.integrate_calls",
         on_call=_ode_steps)
    for owner, attr in ((cli, "cycle_to_csv"), (diliberto, "basis_to_csv"),
                        (phase, "spectrum_to_csv"),
                        (phase, "lockmap_to_csv"),
                        (stochastic, "ensemble_to_csv"),
                        (stochastic, "density_to_csv"),
                        (isochron, "isochron_to_csv")):
        span(owner, attr, "cli.write")
    for method in ("rhs", "field", "jacobian", "divergence"):
        patch(models.OscillatorModel, method,
              tracer.counted(f"models.{method}_calls",
                             getattr(models.OscillatorModel, method)))

    def undo():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return undo
