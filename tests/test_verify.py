"""The suites' cell loop over several batches: one draw buffer for the whole
run, and the same rows as batches drawn each into an array of its own."""

import numpy as np
import pytest

from mcflow import sampling, verify
from mcflow.verify import SUITES, SuiteRow, run_suite

# a small batch, so that every cell of a modest run takes several batches
# and ends on a partial one
SMALL_BATCH = 400


def reference_run(name, samples, seed, **options):
    """``verify._run`` as a plain loop, calling each batch function without
    a draw buffer and keeping every margin of a cell."""
    suite = verify._TABLE[name]
    cells = verify._cells(name, samples, **options)
    rows = []
    for (label, n, k, params), count in zip(cells, verify._split(samples, len(cells))):
        rng = sampling.generator(seed, verify._SUITE_IDS[name], n, k)
        margins, drawn = [], 0
        with np.errstate(over="ignore", invalid="ignore"):
            for take in verify._batches(count):
                margin, got = suite.batch(rng, take, n, k, params)
                margins.append(np.ravel(margin))
                drawn += got
        margin = np.concatenate(margins)
        tol = suite.tol(params)
        ok = margin > -tol if suite.strict else margin >= -tol
        rows.append(SuiteRow(label, n, k, drawn, int((~ok).sum()), float(margin.min()), seed))
    return rows


def several_batches(name):
    """A sample count that gives every cell of ``name`` three batches of
    ``SMALL_BATCH``, the last one partial."""
    cells = len(verify._cells(name, 10 ** 9))
    samples = (2 * SMALL_BATCH + 37) * cells
    assert min(verify._split(samples, cells)) > 2 * SMALL_BATCH
    return samples


class TestRowsOverSeveralBatches:
    @pytest.mark.parametrize("name", list(SUITES))
    def test_rows_match_unbuffered_batches(self, name, monkeypatch):
        monkeypatch.setattr(verify, "_BATCH", SMALL_BATCH)
        samples = several_batches(name)
        rows = run_suite(name, samples, seed=23)
        assert rows == reference_run(name, samples, 23)

    @pytest.mark.parametrize("name,options", [
        ("lemma31", {"n": 3}),
        ("reaction", {"n": 2, "k": 1}),
        ("adapted-r2", {"n": 2, "k": 2}),
    ])
    def test_rows_match_at_the_real_batch_size(self, name, options):
        samples = 2 * verify._BATCH + 1
        rows = run_suite(name, samples, seed=29, **options)
        assert rows == reference_run(name, samples, 29, **options)


class Recording:
    """A generator that keeps every array its ``standard_normal`` returns."""

    def __init__(self, rng, draws):
        self.rng, self.draws = rng, draws

    def standard_normal(self, *args, **kwargs):
        got = self.rng.standard_normal(*args, **kwargs)
        self.draws.append(got)
        return got

    def __getattr__(self, attr):
        return getattr(self.rng, attr)


class TestOneDrawBuffer:
    """Every batch of a run draws its tensors into one buffer: a batch that
    allocated its draw would fail here."""

    @pytest.mark.parametrize("name", list(SUITES))
    def test_every_batch_draws_into_one_buffer(self, name, monkeypatch):
        draws = []
        make = sampling.generator
        monkeypatch.setattr(sampling, "generator",
                            lambda *key: Recording(make(*key), draws))
        monkeypatch.setattr(verify, "_BATCH", SMALL_BATCH)
        samples = several_batches(name)
        run_suite(name, samples, seed=31)
        # lemma31 draws (take, n, n) matrices, the others symmetric tensors
        # (take, n, n, k'); the sphere suites draw none at k = 1
        cells = verify._cells(name, samples)
        counts = verify._split(samples, len(cells))
        batches = sum(len(verify._batches(count)) for (_, _, k, _), count in zip(cells, counts)
                      if k > 1 or not name.startswith(("sphere", "f-bound")))
        tensors = [a for a in draws if a.ndim == (3 if name == "lemma31" else 4)]
        assert len(tensors) == batches >= 2
        assert all(np.shares_memory(a, tensors[0]) for a in tensors)
