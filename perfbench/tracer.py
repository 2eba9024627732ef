"""Per-layer tracing of one mgapprox CLI invocation.

Usage, with the package on PYTHONPATH::

    python3 perfbench/tracer.py SPANS.json mgapprox-args...

The tracer replaces layer functions at the places the package calls them
(``mgapprox.cli.blaschke_product_coeffs``, ``mgapprox.inner.cauchy_product``,
``mgapprox.layered_process.substream``, ``LayerCodec.decode``,
``mgapprox.exact_model.conditional_expectation``, ...) with timing wrappers,
then runs ``mgapprox.cli.main(args)`` in this process.  Wrappers nest, so each
span's self time is its duration minus the time of the spans it opened.
Spans are aggregated in memory per name (calls, total, self) together with
the layer counters, and written to SPANS.json when ``main`` returns.  The
wrappers pass arguments and results through unchanged, so the tables written
are the same bytes as in an untraced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import warnings
from collections import Counter


class Tracer:
    """Span aggregates and counters for one process."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.patterns: set = set()
        self.dps = 0
        self._open: list[float] = []  # child time of each open span

    def wrap(self, layer: str, name, fn, after=None):
        """Time ``fn`` as span ``name`` (a string, or a function of the call's
        arguments); count exceptions as ``<layer>.errors``; then call
        ``after(args, kwargs, result)`` outside the span."""
        spans, counts, open_ = self.spans, self.counts, self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if isinstance(name, str) else name(args, kwargs)
            open_.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                counts[f"{layer}.errors"] += 1
                raise
            finally:
                elapsed = clock() - start
                child = open_.pop()
                if open_:
                    open_[-1] += elapsed
                rec = spans.setdefault(span, [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - child
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "spans": self.spans,
            "counts": dict(self.counts),
            "patterns": len(self.patterns),
            "dps": self.dps,
        }


def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def install(tracer: Tracer) -> None:
    """Wrap every traced function at its call site inside the package."""
    import mgapprox.cli as cli
    import mgapprox.exact_model as exact_model
    import mgapprox.inner as inner
    import mgapprox.layered_process as layered_process
    from mgapprox.exact_model import ExactModel
    from mgapprox.layered_process import LayerCodec

    counts = tracer.counts

    def patch(module, attr, layer, after=None, name=None):
        setattr(module, attr, tracer.wrap(layer, name or f"{layer}.{attr}",
                                          getattr(module, attr), after))

    def table_written(args, kwargs, paths):
        counts["cli.rows"] += len(_arg(args, kwargs, 0, "rows"))
        for path in paths:
            with open(path, "rb") as fh:
                counts["cli.out_bytes"] += fh.seek(0, 2)

    patch(cli, "emit_table", "cli", table_written,
          name=lambda a, k: f"cli.emit_table.{_arg(a, k, 2, 'out_format')}")

    # the Blaschke resolution warning, counted and then passed on unchanged
    product = cli.blaschke_product_coeffs

    @functools.wraps(product)
    def counting_product(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = product(*args, **kwargs)
        for w in caught:
            if issubclass(w.category, RuntimeWarning):
                counts["inner.resolution_warnings"] += 1
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
        return result

    cli.blaschke_product_coeffs = counting_product
    for attr in ("singular_inner_coeffs", "newman_shapiro_main_term", "blaschke_product_coeffs"):
        patch(cli, attr, "inner")
    patch(inner, "blaschke_factor_coeffs", "inner")

    def macs(args, kwargs, result):
        counts["series.cauchy_product.macs"] += (int(_arg(args, kwargs, 2, "n")) + 1) ** 2

    patch(inner, "cauchy_product", "series", macs)
    patch(cli, "cesaro_profile", "series")

    for attr in ("best_scalar_gap", "approximation_gap"):
        patch(cli, attr, "linear_process")

    for attr in ("synthesize_layer_params", "decoding_table", "residual_norm_sq_lagged",
                 "residual_norm_sq_natural", "simulate_and_decode"):
        patch(cli, attr, "layered_process")
    patch(layered_process, "substream", "rng")

    def codec_built(args, kwargs, result):
        tracer.dps = max(tracer.dps, args[0].dps)

    def encoded(args, kwargs, result):
        x_signs = _arg(args, kwargs, 1, "x_signs")
        y_signs = _arg(args, kwargs, 2, "y_signs")
        tracer.patterns.add((tuple(x_signs), tuple(y_signs)))

    patch(LayerCodec, "__init__", "layered_process", codec_built,
          name="layered_process.LayerCodec.init")
    patch(LayerCodec, "encode", "layered_process", encoded, name="layered_process.encode")
    patch(LayerCodec, "decode", "layered_process", name="layered_process.decode")

    ExactModel.build = classmethod(tracer.wrap("exact_model", "exact_model.build",
                                               ExactModel.build.__func__))

    def atoms(args, kwargs, result):
        counts["exact_model.conditional_expectation.atoms"] += len(result)

    patch(exact_model, "conditional_expectation", "exact_model", atoms)
    # hannan_sum calls martingale_difference_norms inside exact_model
    for module in (cli, exact_model):
        patch(module, "martingale_difference_norms", "exact_model")
    for attr in ("hannan_sum", "remote_past_projection"):
        patch(cli, attr, "exact_model")
    for attr in ("digit_value", "decode_digit_value"):
        patch(cli, attr, "exact_model", name="exact_model.digit_codec")


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    import mgapprox.cli

    tracer = Tracer()
    install(tracer)
    status = tracer.wrap("cli", "cli.main", mgapprox.cli.main)(cli_args)
    with open(spans_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.summary(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
