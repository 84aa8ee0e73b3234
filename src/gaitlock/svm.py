"""Multi-class kernel SVM trained from scratch with an SMO dual solver.

Binary machines solve the soft-margin dual by analytic two-variable
updates on maximal violating pairs, with an endpoint-objective fallback
when the second derivative vanishes. Multi-class classification is
one-vs-one with majority voting over z-score-normalized features.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    FormatError,
    NonFinite,
    SingleClass,
    TooFewClasses,
    VersionMismatch,
)
from .imagery import decimal_number

KERNEL_LINEAR = "linear"
KERNEL_POLY = "poly"
KERNEL_RBF = "rbf"
# the parameters each kernel kind takes after c, in the order the model
# file's kernel record writes them
KERNEL_PARAMS = {KERNEL_LINEAR: (), KERNEL_POLY: ("degree",), KERNEL_RBF: ("sigma",)}
KERNELS = tuple(KERNEL_PARAMS)

MODEL_MAGIC = "GAITLOCK-SVM"
MODEL_VERSION = "v1"


@dataclass(frozen=True)
class KernelSpec:
    """Kernel kind plus exactly the parameters that kind requires."""

    kind: str
    c: float
    degree: int | None = None
    sigma: float | None = None

    def __post_init__(self):
        if self.kind not in KERNEL_PARAMS:
            raise ValueError(f"unknown kernel kind {self.kind!r}")
        if not 0 < self.c < np.inf:
            raise ValueError("regularization parameter c must be positive and finite")
        for name in ("degree", "sigma"):
            takes = name in KERNEL_PARAMS[self.kind]
            if takes != (getattr(self, name) is not None):
                raise ValueError(f"{self.kind} kernel {'needs' if takes else 'takes no'} {name}")
        if self.degree is not None:
            if not (float(self.degree).is_integer() and self.degree >= 1):
                raise ValueError(f"kernel degree must be an integer >= 1, got {self.degree!r}")
            object.__setattr__(self, "degree", int(self.degree))
        if self.sigma is not None:
            if not 0 < self.sigma < np.inf:
                raise ValueError("RBF kernel needs a finite sigma > 0")
            object.__setattr__(self, "sigma", float(self.sigma))
        object.__setattr__(self, "c", float(self.c))


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gram matrix K[i, j] = k(a_i, b_j)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatch(f"vector dimensions differ: {a.shape[1]} vs {b.shape[1]}")
    dots = a @ b.T
    if spec.kind != KERNEL_RBF:
        return _kernel_from_dots(spec, dots)
    return _kernel_from_dots(spec, dots, (a * a).sum(axis=1)[:, None], (b * b).sum(axis=1)[None, :])


def _kernel_from_dots(spec: KernelSpec, dots: np.ndarray, norms_a=None, norms_b=None):
    """Turn the dot products ``dots`` of a @ b.T into k(a, b), in place.

    ``norms_a`` and ``norms_b`` are the squared norms of a and b shaped to
    broadcast against ``dots``; only the RBF kernel reads them. The one
    kernel formula of both :func:`kernel_matrix` and the stacked training
    kernels.
    """
    if spec.kind == KERNEL_POLY:
        dots += 1.0
        dots **= spec.degree
    elif spec.kind == KERNEL_RBF:
        # (na + nb) - 2 dots, clipped at 0, then exp(-sq / (2 sigma^2))
        np.subtract(norms_a + norms_b, np.multiply(dots, 2.0, out=dots), out=dots)
        np.maximum(dots, 0.0, out=dots)
        np.divide(dots, -2.0 * spec.sigma**2, out=dots)  # -sq / d and sq / -d round alike
        np.exp(dots, out=dots)
    return dots


@dataclass
class BinarySvm:
    """One trained two-class machine of the one-vs-one ensemble.

    The support vectors are the rows ``index`` of ``pool``, an array the
    machines of one model share. ``coefficients`` holds alpha_i * y_i for
    the support vectors; positive sign pulls toward class_pair[0],
    negative toward class_pair[1].
    """

    pool: np.ndarray = field(repr=False)
    index: np.ndarray
    coefficients: np.ndarray
    bias: float
    kernel: KernelSpec
    class_pair: tuple[str, str]

    @property
    def support_vectors(self) -> np.ndarray:
        return self.pool[self.index]

    def decision_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.index.size == 0:
            return np.full(x.shape[0], self.bias)
        k = kernel_matrix(self.kernel, x, self.support_vectors)
        return k @ self.coefficients + self.bias

    def decision(self, x) -> float:
        return float(self.decision_many(np.asarray(x, dtype=np.float64)[None, :])[0])


def _validate_binary_input(x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    if x.ndim != 2 or x.shape[0] != y.size:
        raise DimensionMismatch("need one label per sample row")
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise NonFinite("training data contains NaN or infinity")
    if not np.isin(y, (-1.0, 1.0)).all():
        raise ValueError("binary labels must be -1 or +1")
    if not ((y > 0).any() and (y < 0).any()):
        raise SingleClass("both labels must be present")
    return x, y


def train_binary(
    x,
    y,
    spec: KernelSpec,
    tol: float = 1e-3,
    max_passes: int = 10,
    class_pair: tuple[str, str] = ("+1", "-1"),
) -> BinarySvm:
    """Solve the soft-margin dual by sequential minimal optimization.

    Each iteration takes an analytic two-variable step on a maximal
    violating pair of the dual gradient (second-order partner choice);
    the bias enters only at the end, as the free-vector average or the
    midpoint of the final gradient band. Training stops once the
    optimality gap closes below ``tol``, which bounds every sample's KKT
    violation by ``tol``. ``max_passes`` scales the iteration budget.
    The solver is fully deterministic; this is the one-machine case of
    the lockstep solver that :func:`train_multiclass` runs. The machine's
    pool is a copy of ``x``. Non-finite kernels or scores raise NonFinite.
    """
    x, y = _validate_binary_input(x, y)
    (machine,) = _train_machines(
        spec, x.copy(), np.arange(y.size)[None], y[None], [class_pair], tol, max_passes
    )
    return machine


# Upper bound on the bytes of one stacked kernel array: machines beyond it
# are trained in further lockstep batches, so memory stays bounded when
# there are very many machines or large ones. A stack's kernels are built
# in chunks of at most _CHUNK_BYTES, which bounds the temporaries and
# keeps each chunk in cache.
_STACK_BYTES = 1 << 24
_CHUNK_BYTES = 1 << 18


def _train_machines(
    spec: KernelSpec,
    x: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    pairs: list[tuple[str, str]],
    tol: float,
    max_passes: int,
) -> list[BinarySvm]:
    """Train one machine per row of the stacked ``rows`` and ``labels`` by lockstep SMO.

    Machine m trains on the rows ``rows[m]`` of ``x`` with the +/-1 labels
    ``labels[m]`` and keeps ``x`` as its pool. The slots past its own size
    are padding: label 0, which puts a slot in neither working set, and
    any valid row number.
    Its dot products come from one ``xr @ xr.T`` of its rows ``xr``, the
    same array twice: numpy then computes it by a symmetric product, whose
    rounding neither two copies of ``xr`` nor a slice of a shared Gram
    matrix reproduce. The machines of one size in a chunk of the stack get
    theirs from one stacked ``xr @ xr.transpose(0, 2, 1)``, which makes
    that same product per machine. The kernel formula, :func:`_kernel_from_dots`, then runs once
    per chunk of the stack on squared norms taken once from ``x``.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    sizes = np.count_nonzero(labels, axis=1)
    norms = (x * x).sum(axis=1)
    machines = []
    batch = max(1, _STACK_BYTES // (8 * int(sizes.max()) ** 2))
    for start in range(0, len(pairs), batch):
        part = slice(start, start + batch)
        n = int(sizes[part].max())
        part_rows, part_sizes, y = rows[part, :n], sizes[part], labels[part, :n]
        k = np.zeros((len(y), n, n))
        chunk = max(1, _CHUNK_BYTES // (8 * n * n))
        for c0 in range(0, len(k), chunk):
            block, block_rows = k[c0 : c0 + chunk], part_rows[c0 : c0 + chunk]
            block_sizes = part_sizes[c0 : c0 + chunk]
            for size in set(block_sizes.tolist()):
                same = block_sizes == size
                xr = x[block_rows[same, :size]]
                block[same, :size, :size] = xr @ xr.transpose(0, 2, 1)
            slot_norms = norms[block_rows]
            with np.errstate(over="ignore", invalid="ignore"):
                _kernel_from_dots(spec, block, slot_norms[:, :, None], slot_norms[:, None, :])
            if not np.isfinite(block).all():
                raise NonFinite(f"{_kernel_record(spec)} overflows float64")
        budget = np.maximum(5000, 500 * max_passes * part_sizes).astype(float)
        # an overflow in the solver leaves a non-finite score, which _machines refuses
        with np.errstate(over="ignore", invalid="ignore"):
            alpha, f_free = _smo_lockstep(k, y, spec.c, tol, budget)
            del k  # the memory bound holds one stack; extraction needs none
            machines += _machines(x, part_rows, y, alpha, f_free, spec, pairs[part])
    return machines


def _smo_lockstep(k, y, c: float, tol: float, budget):
    """Run the SMO iteration of every stacked machine at once.

    ``k`` is (machines, n, n) and finite, ``y`` (machines, n) and
    ``budget`` each machine's iteration limit. A machine leaves the active
    set at the iteration where it stops: it has no up or no low slot (the
    masked extreme that picks ``i`` or the gap is infinite), its gap is
    closed, the step moves nothing, or its budget is spent. A running
    machine's ``j`` is a low slot scoring below ``i``, and each alpha is 0,
    c or at least ``snap`` from both, so the pair's box is never empty. The
    state arrays and a copy of the kernel diagonals are compacted to the
    active machines. Returns the final ``alpha`` and ``f_free`` of each.
    """
    alpha_out = np.zeros(y.shape)
    f_out = np.zeros(y.shape)
    ids = np.arange(y.shape[0])
    alpha = np.zeros(y.shape)
    # f_free[m, t] = sum_s alpha_s y_s K(s, t): the decision values without bias
    f_free = np.zeros(y.shape)
    diag = k.diagonal(axis1=1, axis2=2).copy()  # compacted with the machines
    snap = 1e-12 * max(1.0, c)  # keep alphas exactly on the box bounds

    def boxed(value):
        return np.where(value < snap, 0.0, np.where(value > c - snap, c, value))

    tau = 1e-12
    iteration = 0
    pos, neg = y > 0, y < 0
    while ids.size:
        rows = np.arange(ids.size)
        scores = y - f_free  # -y * dual gradient, bias-free optimality score
        up = (pos & (alpha < c)) | (neg & (alpha > 0))
        low = (pos & (alpha > 0)) | (neg & (alpha < c))
        # excluded slots hold -inf/+inf, so argmax keeps the first of tied
        # scores, and an extreme at -inf (inf) means no up (low) slot
        extreme = np.where(up, scores, -np.inf)
        i = extreme.argmax(axis=1)
        no_up = ~(extreme[rows, i] > -np.inf)
        extreme = np.where(low, scores, np.inf)
        lo_i = extreme.argmin(axis=1)
        no_low = ~(extreme[rows, lo_i] < np.inf)
        del extreme
        score_i = scores[rows, i]
        # a machine without low slots gets a finite gap here, but stops on no_low
        gap = score_i - scores[rows, lo_i]
        stop = no_up | no_low | (gap <= tol) | (budget <= iteration)
        # partner with the largest analytic objective gain
        k_i = k[ids, i]
        cand = low & (scores < score_i[:, None])
        diffs = score_i[:, None] - scores
        etas = k_i[rows, i][:, None] + diag - 2.0 * k_i
        etas = np.fmax(etas, tau)  # NaN too becomes tau
        j = np.where(cand, diffs * diffs / etas, -np.inf).argmax(axis=1)
        k_j = k[ids, j]

        yi, yj = y[rows, i], y[rows, j]
        s = yi * yj
        ai_old, aj_old = alpha[rows, i], alpha[rows, j]
        lo_b = np.where(
            s < 0, np.maximum(0.0, aj_old - ai_old), np.maximum(0.0, ai_old + aj_old - c)
        )
        hi_b = np.where(s < 0, np.minimum(c, c + aj_old - ai_old), np.minimum(c, ai_old + aj_old))
        eta = k_i[rows, i] + k_j[rows, j] - 2.0 * k_i[rows, j]
        steep = eta > tau
        e_diff = (f_free[rows, i] - yi) - (f_free[rows, j] - yj)
        # flat machines divide by 1, so their unused steep step stays finite
        aj_steep = np.minimum(
            hi_b, np.maximum(lo_b, aj_old + yj * e_diff / np.where(steep, eta, 1.0))
        )
        # flat direction: move to whichever clip end gains dual objective;
        # a step dj of alpha_j gains dj * (yj * e_diff - dj * eta / 2)
        best_gain, aj_flat = np.zeros(ids.size), aj_old
        if not steep.all():
            for end in (lo_b, hi_b):
                dj = end - aj_old
                gain = dj * (yj * e_diff - 0.5 * dj * eta)
                better = gain > best_gain + 1e-15
                best_gain = np.where(better, gain, best_gain)
                aj_flat = np.where(better, end, aj_flat)
        aj = boxed(np.where(steep, aj_steep, aj_flat))
        ai = boxed(np.minimum(c, np.maximum(0.0, ai_old + s * (aj_old - aj))))
        stop |= (ai == ai_old) & (aj == aj_old)

        if stop.any():
            alpha_out[ids[stop]] = alpha[stop]
            f_out[ids[stop]] = f_free[stop]
            go = ~stop
            y, pos, neg, alpha, f_free, diag, budget, ids = (
                v[go] for v in (y, pos, neg, alpha, f_free, diag, budget, ids)
            )
            i, j, ai, aj, ai_old, aj_old, yi, yj, k_i, k_j = (
                v[go] for v in (i, j, ai, aj, ai_old, aj_old, yi, yj, k_i, k_j)
            )
            rows = rows[: ids.size]
        alpha[rows, i] = ai
        alpha[rows, j] = aj
        f_free += ((ai - ai_old) * yi)[:, None] * k_i + ((aj - aj_old) * yj)[:, None] * k_j
        iteration += 1
    return alpha_out, f_out


def _machines(pool, rows, y, alpha, f_free, spec: KernelSpec, pairs) -> list[BinarySvm]:
    """Bias and support vectors of each solved machine of a stack on
    ``pool[rows[m]]``; padding slots have y = alpha = 0, so they fall in
    none of the masks.

    A machine's bias is the mean score of its free vectors, taken by one
    2-D mean per distinct free-vector count; without free vectors it is
    the midpoint of the final gradient band, which sum(alpha * y) = 0
    keeps non-empty. A non-finite score or bias raises NonFinite."""
    c = spec.c
    scores = y - f_free
    up = ((y > 0) & (alpha < c)) | ((y < 0) & (alpha > 0))
    low = ((y > 0) & (alpha > 0)) | ((y < 0) & (alpha < c))
    free = (alpha > 0.0) & (alpha < c)
    support = alpha > 0.0
    # the midpoint of the final gradient band, kept by the machines without free vectors
    bias = np.where(up, scores, -np.inf).max(axis=1) + np.where(low, scores, np.inf).min(axis=1)
    bias /= 2.0
    counts = free.sum(axis=1)
    # one mean per free-vector count: each row of the (machines, count) array
    # sums in numpy's pairwise order for ``count`` values, as the 1-D mean of
    # that machine's free scores does, and that order sets the bias bits
    for count in (np.flatnonzero(np.bincount(counts)[1:]) + 1).tolist():
        same = counts == count
        bias[same] = scores[same][free[same]].reshape(-1, count).mean(axis=1)
    bad = ~np.isfinite(np.where(y != 0, scores, bias[:, None])).all(axis=1)
    if bad.any():
        pair = " ".join(pairs[int(bad.argmax())])
        raise NonFinite(f"{_kernel_record(spec)} overflows float64 on pair {pair}")
    index, coefficients = rows[support], (alpha * y)[support]
    s = [0, *np.cumsum(support.sum(axis=1)).tolist()]
    return [
        BinarySvm(pool, index[s[m] : s[m + 1]], coefficients[s[m] : s[m + 1]], b, spec, pair)
        for m, (b, pair) in enumerate(zip(bias.tolist(), pairs))
    ]


@dataclass
class SvmModel:
    """One-vs-one ensemble plus the training normalization statistics:
    one machine per pair of the sorted classes, in training order, all
    under one kernel, all with support vectors in one pool.

    The first prediction compiles the machines into arrays that every
    later prediction reuses, so a model's machines must not be replaced
    after its first prediction. They hold each support vector once, laid
    out by slot: machines in order of falling support-vector count, and
    slot t holding the t-th support vector of each machine that has more
    than t, so that it covers a prefix of that machine order."""

    classes: list[str]
    binaries: list[BinarySvm]
    norm_mean: np.ndarray
    norm_std: np.ndarray = field(repr=False)

    def __post_init__(self):
        if any(m.pool is not self.binaries[0].pool for m in self.binaries):
            raise ValueError("the machines of a model must share one support-vector pool")

    @property
    def dimension(self) -> int:
        return self.norm_mean.size

    @property
    def kernel(self) -> KernelSpec:
        return self.binaries[0].kernel

    @property
    def pool(self) -> np.ndarray:
        return self.binaries[0].pool

    def normalize(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.norm_mean) / self.norm_std

    @functools.cached_property
    def _compiled(self) -> tuple:
        """Each machine's place in the order of falling support-vector
        count; each machine's two classes and bias in that order; every
        support vector's pool row and coefficient in slot order; each
        slot's (machine count, start, end) there; and the pool's squared
        norms."""
        sizes = np.array([m.index.size for m in self.binaries])
        order = np.argsort(-sizes, kind="stable")
        place = np.empty_like(order)
        place[order] = np.arange(order.size)
        first, second = (c[order] for c in np.triu_indices(len(self.classes), 1))
        biases = np.array([m.bias for m in self.binaries])[order]
        counts = sizes.size - np.cumsum(np.bincount(sizes))[:-1]  # machines with more than t
        starts = np.cumsum(counts) - counts
        # the t-th vector of machine m goes to starts[t] + place[m]
        rank = np.arange(sizes.sum()) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        at = starts[rank] + np.repeat(place, sizes)
        index = np.empty(at.size, dtype=np.intp)
        coef = np.empty(at.size)
        index[at] = np.concatenate([m.index for m in self.binaries])
        coef[at] = np.concatenate([m.coefficients for m in self.binaries])
        if index.size and not 0 <= index.min() <= index.max() < len(self.pool):
            raise IndexError("a support-vector index lies outside the pool")  # take clips it
        slots = tuple(zip(counts.tolist(), starts.tolist(), (starts + counts).tolist()))
        norms = (self.pool * self.pool).sum(axis=1)[None, :]
        return place, first, second, biases, index, coef, slots, norms


def train_multiclass(
    x,
    labels,
    spec: KernelSpec,
    tol: float = 1e-3,
    max_passes: int = 10,
) -> SvmModel:
    """Train k(k-1)/2 pairwise machines on z-score-normalized features.

    Labels are coerced to strings so that models survive the text
    round trip unchanged. Zero-variance dimensions pass through unscaled.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionMismatch("feature matrix must be 2-D")
    if not np.isfinite(x).all():
        raise NonFinite("training data contains NaN or infinity")
    labels = [str(lbl) for lbl in labels]
    if len(labels) != x.shape[0]:
        raise DimensionMismatch("need one label per sample row")
    classes = sorted(set(labels))
    if len(classes) < 2:
        raise TooFewClasses(f"need >= 2 classes, got {len(classes)}")
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    std = np.where(std > 0.0, std, 1.0)
    z = (x - mean) / std
    column = {cls: i for i, cls in enumerate(classes)}
    codes = np.array([column[lbl] for lbl in labels])
    # each class's rows in ascending order, padded with the row count, which
    # sorts last: a pair's rows are the sorted union of its two classes' rows
    counts = np.bincount(codes)
    members = np.full((len(classes), counts.max()), codes.size)
    for i, count in enumerate(counts.tolist()):
        members[i, :count] = np.flatnonzero(codes == i)
    first, second = np.triu_indices(len(classes), 1)  # the pairs in combinations order
    rows = np.sort(np.concatenate((members[first], members[second]), axis=1), axis=1)
    rows = rows[:, : (counts[first] + counts[second]).max()]
    slot_class = np.append(codes, -1)[rows]
    y = (slot_class == first[:, None]).astype(float) - (slot_class == second[:, None])
    rows[rows == codes.size] = 0  # padding slots, labelled 0, point at any row
    pairs = list(itertools.combinations(classes, 2))
    binaries = _train_machines(spec, z, rows, y, pairs, tol, max_passes)
    return SvmModel(classes=classes, binaries=binaries, norm_mean=mean, norm_std=std)


def predict(model: SvmModel, x) -> str:
    """Label of one feature vector; see :func:`predict_many`."""
    return predict_many(model, np.ravel(x)[None, :])[0]


def predict_many(model: SvmModel, x) -> list[str]:
    """Majority vote over the pairwise machines, one label per row.

    Ties go to the tied label with the largest sum of absolute decision
    values over the machines that voted for it, then to class order.
    Each row costs one kernel evaluation against the model's pool and one
    add per slot of the compiled layout (see :class:`SvmModel`), that is,
    as many adds as the largest machine has support vectors; see
    :func:`_decision_values`.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.ndim != 2 or x.shape[1] != model.dimension:
        raise DimensionMismatch(f"expected {model.dimension} features, got {x.shape[-1]}")
    if not np.isfinite(x).all():
        raise NonFinite("probe features contain NaN or infinity")
    place, first, second = model._compiled[:3]
    n_classes = len(model.classes)
    labels = []
    for d in _decision_values(model, model.normalize(x)):
        winner = np.where(d >= 0.0, first, second)
        votes = np.bincount(winner, minlength=n_classes)
        best = votes.argmax()
        if np.count_nonzero(votes == votes[best]) > 1:
            # the strengths add up in machine order
            strength = np.bincount(winner[place], weights=np.abs(d[place]), minlength=n_classes)
            best = np.argmax(np.where(votes == votes[best], strength, -np.inf))
        labels.append(model.classes[best])
    return labels


def _decision_values(model: SvmModel, z: np.ndarray):
    """Yield every machine's decision value on each normalized row of
    ``z``, in the compiled order (``d[place]`` is in machine order). Slot
    t adds its terms to the sums of the machines it covers, so each sum
    starts at 0.0 and adds its machine's terms in support-vector order, as
    ``np.bincount`` would; the bias comes last."""
    _, _, _, biases, index, coef, slots, norms = model._compiled
    terms, total = np.empty(index.size), np.empty(biases.size)
    for row in z[:, None, :]:
        # kernel_matrix(model.kernel, row, model.pool), on the compiled pool norms
        dots = row @ model.pool.T
        k = _kernel_from_dots(model.kernel, dots, (row * row).sum(axis=1)[:, None], norms)[0]
        np.take(k, index, out=terms, mode="clip")  # in range; "raise" would copy through a buffer
        terms *= coef
        total.fill(0.0)
        for count, start, end in slots:
            part = total[:count]  # a named view: += writes nothing back through a slice
            part += terms[start:end]
        yield biases + total


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def _kernel_record(spec: KernelSpec) -> str:
    params = [getattr(spec, name) for name in KERNEL_PARAMS[spec.kind]]
    return " ".join(["kernel", spec.kind] + [_fmt(v) for v in (spec.c, *params)])


def save_model(model: SvmModel, path) -> None:
    """Write the versioned plain-text model file one machine at a time;
    each pool row is formatted once, however many support vectors repeat it."""
    dim = model.dimension
    # "%.17g" writes the text _fmt does
    text = [(" %.17g" * dim) % tuple(row.tolist()) for row in model.pool]
    kernel = _kernel_record(model.kernel)
    with open(path, "w", encoding="ascii", newline="\n") as file:
        file.write(f"{MODEL_MAGIC} {MODEL_VERSION}\nclasses {len(model.classes)}\n")
        file.writelines(f"{cls}\n" for cls in model.classes)
        file.write(f"normalization {dim}\n")
        file.writelines(f"{_fmt(m)} {_fmt(s)}\n" for m, s in zip(model.norm_mean, model.norm_std))
        file.write(f"machines {len(model.binaries)}\n")
        for machine in model.binaries:
            vectors = zip(machine.coefficients.tolist(), machine.index.tolist())
            file.write(
                f"pair {machine.class_pair[0]} {machine.class_pair[1]}\n{kernel}\n"
                f"bias {_fmt(machine.bias)}\nvectors {machine.index.size} {dim}\n"
                + "".join(["%.17g%s\n" % (coef, text[i]) for coef, i in vectors])
            )
        file.write("end\n")


def _check_finite(values, record: str) -> None:
    if not np.isfinite(values).all():
        raise FormatError(f"{record} holds a non-finite number")


def load_model(path) -> SvmModel:
    """Parse a model file written by :func:`save_model`, one line at a time.
    Support-vector rows with the same text are parsed once, as one row of
    the pool. A file it cannot read raises FormatError (VersionMismatch for
    another version) with the message ``<path> line <n>: <problem>``, lines
    counted as ``str.splitlines`` splits the text; counts are read by
    ``imagery.decimal_number``."""
    line_no = 1  # the line an error names
    with open(path, encoding="ascii", errors="replace") as file:
        head = f"{MODEL_MAGIC} {MODEL_VERSION}\n"
        first = file.readline()
        # str.splitlines of each line splits the records as it splits the whole text
        lines = itertools.chain([first], file)
        numbered = enumerate((record for line in lines for record in line.splitlines()), start=1)

        def expect(keyword: str) -> list[str]:
            nonlocal line_no
            line_no, line = next(numbered)
            parts = line.split()
            if not parts or parts[0] != keyword:
                raise FormatError(f"expected '{keyword}' record")
            return parts[1:]

        def count(text: str, record: str) -> int:
            try:
                return decimal_number(text)
            except ValueError as exc:
                raise FormatError(f"{record} has a bad count: {exc}") from None

        def rows(count_str: str, record: str) -> list[tuple[int, str]]:
            # the numbered lines a record announces, read before any array is
            # sized by the count
            n = count(count_str, record)
            taken = list(itertools.islice(numbered, n))
            if len(taken) < n:
                raise FormatError(f"{record} announces {n} lines, the file holds {len(taken)}")
            return taken

        try:
            if first and first != head and head.startswith(first):  # a write cut inside the header
                raise FormatError("model file is truncated")
            header = next(numbered, (1, ""))[1].split()
            if len(header) != 2 or header[0] != MODEL_MAGIC:
                raise FormatError("not a gaitlock SVM model file")
            if header[1] != MODEL_VERSION:
                raise VersionMismatch(f"unsupported model version {header[1]!r}")
            (k_str,) = expect("classes")
            class_rows = rows(k_str, f"record 'classes {k_str}'")
            classes = [name for _, name in class_rows]
            if len(classes) < 2 or classes != sorted(set(classes)):
                raise FormatError(
                    f"record 'classes {k_str}' needs 2 or more distinct sorted classes"
                )
            line_no = class_rows[-1][0]
            (dim_str,) = expect("normalization")
            mean, std = [], []
            for line_no, line in rows(dim_str, f"record 'normalization {dim_str}'"):
                fields = line.split()
                record = f"normalization record '{' '.join(fields)}'"
                if len(fields) != 2:
                    raise FormatError(f"{record} needs a mean and a std")
                mean.append(float(fields[0]))
                std.append(float(fields[1]))
                if not (np.isfinite(mean[-1]) and 0.0 < std[-1] < np.inf):
                    raise FormatError(f"{record} needs a finite mean and std > 0")
            dim = len(mean)
            mean, std = np.array(mean), np.array(std)
            (m_count_str,) = expect("machines")
            n_pairs = len(classes) * (len(classes) - 1) // 2
            if count(m_count_str, f"record 'machines {m_count_str}'") != n_pairs:
                raise FormatError(f"record 'machines {m_count_str}' should be 'machines {n_pairs}'")
            machines, pool, slot = [], [], {}  # slot: row text -> pool row
            for pair in itertools.combinations(classes, 2):  # the order of train_multiclass
                labels = expect("pair")
                if labels != list(pair):
                    want = " ".join(pair)
                    raise FormatError(f"record 'pair {' '.join(labels)}' should be 'pair {want}'")
                kparts = expect("kernel")
                record = f"record 'kernel {' '.join(kparts)}'"
                if not machines:
                    first_kernel = kparts
                    names = KERNEL_PARAMS.get(kparts[0]) if kparts else None
                    if names is None or len(kparts) != 2 + len(names):
                        raise FormatError(f"{record} needs a kernel kind, c and its parameters")
                    try:
                        values = [float(v) for v in kparts[1:]]
                        _check_finite(values, record)
                        spec = KernelSpec(kparts[0], values[0], **dict(zip(names, values[1:])))
                    except ValueError as exc:
                        raise FormatError(f"{record}: {exc}") from exc
                elif kparts != first_kernel:
                    raise FormatError(f"{record} differs from the model's first kernel record")
                (bias_str,) = expect("bias")
                of_pair = f"of pair {pair[0]} {pair[1]}"
                _check_finite([float(bias_str)], f"record 'bias {bias_str}' {of_pair}")
                n_sv_str, sv_dim_str = expect("vectors")
                record = f"record 'vectors {n_sv_str} {sv_dim_str}' {of_pair}"
                if count(sv_dim_str, record) != dim:
                    raise FormatError("support vector dimension differs from normalization")
                coefs, index = [], []
                vectors = rows(n_sv_str, record)
                for line_no, line in vectors:
                    parts = line.split(maxsplit=1)
                    text = parts[1] if len(parts) == 2 else ""
                    if text not in slot:
                        values = text.split()
                        if not parts or len(values) != dim:
                            raise FormatError(f"a 'vectors' row {of_pair} has wrong arity")
                        slot[text] = len(pool)
                        pool.append([float(v) for v in values])
                        _check_finite(pool[-1], f"a 'vectors' row {of_pair}")
                    coefs.append(float(parts[0]))
                    index.append(slot[text])
                coefs = np.array(coefs, dtype=float)
                finite = np.isfinite(coefs)
                if not finite.all():
                    line_no = vectors[int(finite.argmin())][0]
                    raise FormatError(f"a 'vectors' row {of_pair} holds a non-finite number")
                index = np.array(index, dtype=np.intp)
                machines.append((index, coefs, float(bias_str), spec, pair))
            line_no, line = next(numbered)
            if line != "end":
                raise FormatError("missing end record")
        except StopIteration:
            raise FormatError(f"{path} line {line_no + 1}: model file is truncated") from None
        except (ValueError, IndexError) as exc:
            raise FormatError(f"{path} line {line_no}: malformed record: {exc}") from exc
        except (FormatError, VersionMismatch) as exc:
            raise type(exc)(f"{path} line {line_no}: {exc}") from None
    pool = np.array(pool, dtype=float).reshape(len(pool), dim)
    binaries = [BinarySvm(pool, *machine) for machine in machines]
    return SvmModel(classes=classes, binaries=binaries, norm_mean=mean, norm_std=std)


def kkt_violation(machine: BinarySvm, x, y, atol: float = 1e-9) -> float:
    """Largest KKT violation of a trained machine over its training set.

    ``x`` must be the (normalized) training rows and ``y`` their +/-1
    labels. Alphas are recovered by matching rows against the stored
    support vectors; unmatched rows have alpha = 0. The returned value is
    <= tol exactly when every sample satisfies its KKT condition within
    tol.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64).ravel()
    c = machine.kernel.c
    vectors = machine.support_vectors
    consumed = np.zeros(vectors.shape[0], dtype=bool)
    alphas = np.zeros(y.size)
    for i in range(y.size):
        for sv_idx in range(consumed.size):
            if consumed[sv_idx]:
                continue
            coef = machine.coefficients[sv_idx]
            if np.sign(coef) == np.sign(y[i]) and np.array_equal(vectors[sv_idx], x[i]):
                alphas[i] = abs(coef)
                consumed[sv_idx] = True
                break
    margins = y * machine.decision_many(x)
    worst = -np.inf
    for a, m in zip(alphas, margins):
        if a <= atol:
            worst = max(worst, 1.0 - m)
        elif a >= c - atol:
            worst = max(worst, m - 1.0)
        else:
            worst = max(worst, abs(m - 1.0))
    return float(worst)
