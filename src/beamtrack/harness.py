"""Monte-Carlo experiment orchestration: the trial-batched tracking engine,
metric aggregation, CSV emission, and flat config-file parsing.

The engine holds a batch of trials as arrays with one row per trial and
runs the cycles in chunks of at most ``CYCLE_CHUNK``.  Per chunk it draws
the normals, then simulates the chunk's ground-truth channels in one call
(:func:`~.channels.evolve_chunk`; the channel does not depend on the
tracker), then runs each cycle as one numpy pass over the batch: build the
probe pattern at the current estimates, observe the cycle's channel,
update and, at the cycles the CSV records, compute the errors.  Each trial
first draws its channel and an in-main-lobe initial estimate (one
bootstrap probing cycle fits the initial gain).  Trackers are reached
through one batched interface (:class:`~.trackers.BatchTracker`) looked up
in ``TRACKERS``.

Random numbers (the contract).  Trial ``t`` owns the stream
``default_rng(SeedSequence(seed, spawn_key=(t,)))``.  A batch's streams are
seeded in one vectorised pass (:func:`_trial_rngs`) that reproduces
numpy's seeding word for word, so the streams are exactly those.  Each
first makes the 13 draws of :func:`~.channels.initial_draws`: theta, phi,
the Rician phase (quasi-static only), two gain normals, two
initial-estimate offsets and the bootstrap cycle's six noise normals, the
uniforms scaled from ``random()`` as ``Generator.uniform`` scales them.
Tests pin the numpy behaviour this rests on: the generators equal
``default_rng``'s for seeds up to beyond 2^64, and the scaled uniforms
equal ``Generator.uniform``'s bit for bit.  Then, K at most
``CYCLE_CHUNK`` cycles at a time, it writes ``standard_normal`` straight
into its (K, c) slice of one preallocated (B, K, c) block of the batch,
the numbers of ``standard_normal((K, c))``.  A cycle's row holds the
channel transition's ``evolve_normals(kind)`` columns (quasi-static none;
fading gain the two gain normals; Gauss-Markov the theta and phi steps,
scaled by ``delta_a``, then the two gain normals), then the real and the
imaginary parts of the three noise values.  The chunk's channel
trajectory reads the transition columns of all K cycles, and cycle k
reads its noise columns from ``block[:, k]``.  A trial's numbers
therefore do not depend on the batch, and the per-trial errors are
reduced in trial order, so for a fixed seed the CSV is byte-identical at
any batch split.
"""

from __future__ import annotations

import math
import sys
import tomllib
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .arrays import ArrayConfig, _gain_kernel
from .channels import (ChannelBatch, DynamicI, DynamicII, QuasiStatic,
                       ScenarioConfig, estimated_gain_variance, evolve_chunk,
                       evolve_normals, init_channel_batch, initial_draws,
                       initial_estimate_batch)
from .estimation import (di_offsets_crlb, snr_beta_db_ceiling,
                         static_offsets_crlb)
from .offsets import OFFSET_PRESETS, STATIC_OFFSETS, db_to_power
from .signal import OffsetSet, observe_fast
from .trackers import (BeamSwitchBatch, ConstantStep, DiminishingStep,
                       EkfBatch, JbctBatch, RbtBatch, TrackerRun)

# tracker name -> (batched implementation, default step schedule); the
# baselines take no step schedule, and a run that sets one is rejected
TRACKERS = {
    "JBCT_S": (JbctBatch, DiminishingStep(1.0)),
    "RBT_DI": (RbtBatch, DiminishingStep(1.0)),
    "JBCT_DII": (JbctBatch, ConstantStep(0.7)),
    "BeamSwitch": (BeamSwitchBatch, None),
    "EKF": (EkfBatch, None),
}
TRACKER_NAMES = tuple(TRACKERS)

CYCLE_CHUNK = 256   # cycles of normals drawn per trial at a time
NOISE_NORMALS = 6   # real then imaginary parts of three noise values
# each trial's stream takes one 32-bit spawn word (_trial_rngs)
_MAX_TRIALS = 2**32


class ConfigError(ValueError):
    """An experiment configuration field is missing, unknown, or invalid."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig
    array: ArrayConfig
    tracker: str
    offsets: OffsetSet = STATIC_OFFSETS
    schedule: Optional[object] = None   # default depends on the tracker
    num_trials: int = 1
    num_eccs: int = 100
    seed: int = 0
    snr_db: float = 0.0
    record_every: int = 1
    init_halfwidth: float = 0.5
    rbt_sigma_mode: str = "perfect"


@dataclass(frozen=True)
class MetricsRecord:
    ecc: int
    explorations_total: int
    mse_h: float
    mse_x: float
    crlb_ref: float
    trials: int


def snr_db_floor(sc: ScenarioConfig) -> float:
    """The lowest transmit SNR in dB a run takes, and below unit gain
    variance the lowest gain SNR snr_db + 10 log10 sigma_beta_c_sq: at
    it, the gain SNR at the element pattern's deepest attenuation, raised
    to the fourth power (the direction Fisher's determinant is quartic in
    it), is the smallest normal float.  About -739.1 dB with the default
    30 dB pattern."""
    return 10.0 * math.log10(sys.float_info.min) / 4.0 \
        + sc.pattern.eta_max_db


def snr_db_ceiling(cfg: ArrayConfig) -> float:
    """The highest gain SNR in dB a run takes at ``cfg``'s size, for
    snr_db + 10 log10 max(1, sigma_beta_c_sq): the direction Fisher stays
    a float (:func:`~.estimation.snr_beta_db_ceiling`) at a gain power
    20 dB above its mean, which a complex normal gain exceeds with
    probability e^-100 a draw.  About 1485.5 dB at 8x8."""
    return snr_beta_db_ceiling(cfg.size) - 20.0


def extent_ceiling() -> float:
    """The largest array extent m d1 or n d2 a run takes.  The direction
    coordinates lie within +-m d1 and +-n d2, so an estimate in the same
    span misses by at most twice the extent per coordinate; at the ceiling
    the squared direction error of two such misses, 8 (m d1)^2, is half
    the largest float, which leaves room for an estimate's capped steps
    past the span.  About 3.352e153."""
    return math.sqrt(sys.float_info.max) / 4.0


def _validate(ec: ExperimentConfig):
    if ec.tracker not in TRACKERS:
        raise ConfigError(f"tracker: unknown tracker {ec.tracker!r}; "
                          f"expected one of {TRACKER_NAMES}")
    tracker_cls, default_schedule = TRACKERS[ec.tracker]
    if ec.schedule is not None and default_schedule is None:
        raise ConfigError(f"schedule: {ec.tracker} takes no step schedule")
    if ec.num_trials < 1:
        raise ConfigError("num_trials: must be at least 1")
    if ec.num_trials > _MAX_TRIALS:
        raise ConfigError(f"num_trials: at most {_MAX_TRIALS}, one 32-bit "
                          f"stream word per trial")
    if ec.num_eccs < 1:
        raise ConfigError("num_eccs: must be at least 1")
    if ec.seed < 0:
        raise ConfigError("seed: must be nonnegative")
    if ec.record_every < 1:
        raise ConfigError("record_every: must be at least 1")
    if not 0 <= ec.init_halfwidth < 1:
        raise ConfigError("init_halfwidth: must lie in [0, 1)")
    if ec.rbt_sigma_mode not in ("perfect", "estimated"):
        raise ConfigError("rbt_sigma_mode: expected 'perfect' or 'estimated'")
    if ec.rbt_sigma_mode == "estimated" and tracker_cls is not RbtBatch:
        raise ConfigError(f"rbt_sigma_mode: 'estimated' applies to the "
                          f"direction tracker only, not {ec.tracker}")
    if not isinstance(ec.offsets, OffsetSet):
        raise ConfigError(f"offsets: expected an OffsetSet, got "
                          f"{ec.offsets!r}; parse_offsets reads a preset "
                          f"name or six numbers")
    # snr_db alone sets the pilot SNR (effective_array)
    if ec.array.pilot_amp != 1.0:
        raise ConfigError(f"array.pilot_amp: expected 1.0, got "
                          f"{ec.array.pilot_amp!r}; snr_db sets the pilot SNR")
    # the floor holds for the pilot and, below unit gain variance, for the
    # gain SNR snr x sigma_beta_c_sq, on which the direction bound rests
    floor = snr_db_floor(ec.scenario)
    var = _stationary_gain_var(ec.scenario.kind)
    var_db = 10.0 * math.log10(var)
    if ec.snr_db + min(0.0, var_db) < floor:
        raise ConfigError(f"snr_db: {ec.snr_db!r} with sigma_beta_c_sq = "
                          f"{var!r} puts snr_db + 10 log10 min(1, "
                          f"sigma_beta_c_sq) below the floor of {floor:.3f} "
                          f"dB, under which the direction Fisher underflows "
                          f"a float")
    ceiling = snr_db_ceiling(ec.array)
    if ec.snr_db + max(0.0, var_db) > ceiling:
        raise ConfigError(f"snr_db: {ec.snr_db!r} with sigma_beta_c_sq = "
                          f"{var!r} puts snr_db + 10 log10 max(1, "
                          f"sigma_beta_c_sq) above the ceiling of "
                          f"{ceiling:.3f} dB at {ec.array.m}x{ec.array.n}, "
                          f"over which the direction Fisher overflows a "
                          f"float")
    extent = extent_ceiling()
    for key, size, spacing in (("d1", "m", ec.array.m * ec.array.d1),
                               ("d2", "n", ec.array.n * ec.array.d2)):
        if spacing > extent:
            raise ConfigError(f"{key}: {size} * {key} = {spacing!r} is above "
                              f"the ceiling of {extent:.4g}, over which the "
                              f"squared direction error overflows a float")
    _build("snr_db", effective_array, ec)


def parse_offsets(text: str) -> OffsetSet:
    """The :class:`OffsetSet` ``text`` names: a preset's set for its name,
    or the set of six numbers ``x1,x2,x1,x2,x1,x2``; else a ConfigError.
    The ``offsets`` config key and ``crlb --offsets`` read this."""
    if text in OFFSET_PRESETS:
        return OFFSET_PRESETS[text]
    try:
        vals = np.array([float(v) for v in text.split(",")]).reshape(3, 2)
    except ValueError:
        raise ConfigError(f"offsets: expected a preset name "
                          f"{sorted(OFFSET_PRESETS)} or six numbers, got "
                          f"{text!r}") from None
    return _build("offsets", OffsetSet, vals)


def effective_array(ec: ExperimentConfig) -> ArrayConfig:
    """The run's array with the pilot amplitude of its transmit SNR,
    pilot_amp = sqrt(10^(snr_db/10)), at the package's CN(0, 1) noise.  A
    run's results depend on that SNR alone, so its ``array`` keeps
    ``pilot_amp`` at 1.0."""
    return replace(ec.array, pilot_amp=math.sqrt(db_to_power(ec.snr_db)))


def _stationary_gain_var(kind) -> float:
    if isinstance(kind, DynamicI):
        return kind.sigma_beta_c_sq
    return 1.0  # Rician (unit mean power) and Gauss-Markov stationary


# numpy's SeedSequence hash: multiplier and mixing constants, 32-bit words
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, first: int,
                    count: int) -> np.ndarray:
    """The hash constants init * mult^k (mod 2^32), k = first, ...,
    first + count - 1."""
    return np.array([init * pow(mult, k, 1 << 32) & _MASK32
                     for k in range(first, first + count)], np.uint32)


_STATE_CONSTANTS = _hash_constants(_INIT_B, _MULT_B, 0, 9)


def _trial_rngs(seed: int, trials: range) -> List[np.random.Generator]:
    """The generators of trials ``trials`` (each below 2^32): trial t's is
    ``default_rng(SeedSequence(seed, spawn_key=(t,)))``, seeded in one
    vectorised pass over the batch.

    A child's entropy is the seed's words, zero-padded to the 4-word pool,
    then its spawn word t; so its pool is ``SeedSequence(seed).pool`` with
    t mixed into each of the 4 words, by hash constants advanced past the
    16 hashes of the first 4 entropy words and 4 per further seed word.
    PCG64 takes the 4 uint64 words of ``generate_state(4, uint64)``: the
    pool cycled to 8 uint32 words, hashed, and paired little-endian."""
    t = np.asarray(trials, np.uint32)[:, None]
    extra_words = max(0, -(-int(seed).bit_length() // 32) - 4)
    # mix t into each pool word: mix(pool, hashmix(t))
    a = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * extra_words, 5)
    v = (t ^ a[:4]) * a[1:]
    v ^= v >> 16
    pool = (np.uint32(_MIX_L) * np.random.SeedSequence(seed).pool
            - np.uint32(_MIX_R) * v)
    pool ^= pool >> 16
    # generate_state: 8 words hashed from the cycled pool
    b = _STATE_CONSTANTS
    w = (np.concatenate([pool, pool], axis=1) ^ b[:8]) * b[1:]
    w ^= w >> 16
    words = w.astype("<u4").view("<u8").astype(np.uint64)

    # defined here, not at import, because its base loads numpy.random
    class SeedWords(np.random.bit_generator.ISeedSequence):
        """Seed words computed beforehand, handed to a bit generator."""

        def __init__(self, words: np.ndarray):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return [np.random.Generator(np.random.PCG64(SeedWords(row)))
            for row in words]


def _channel_errors(cfg: ArrayConfig, x: np.ndarray, beta: np.ndarray,
                    x_hat: np.ndarray, beta_hat: Optional[np.ndarray]):
    """Per-trial (per-element channel-vector SE, direction SE) of a cycle
    whose true channels are ``x`` (T, 2) and ``beta`` (T,), equivalent
    gains; the first is NaN for a direction-only tracker."""
    dx = x_hat - x
    err_x = dx[:, 0] * dx[:, 0] + dx[:, 1] * dx[:, 1]
    if beta_hat is None:
        return np.full(len(dx), np.nan), err_x
    g = _gain_kernel(dx, cfg.m, cfg.n)
    cross = np.sqrt(cfg.size) * g
    err_h = (cfg.size * (np.abs(beta_hat) ** 2 + np.abs(beta) ** 2)
             - 2.0 * np.real(np.conj(beta_hat) * beta * cross))
    return np.maximum(err_h, 0.0) / cfg.size, err_x


def _crlb_refs(ec: ExperimentConfig, cfg: ArrayConfig,
               ch: ChannelBatch) -> np.ndarray:
    """Per-trial one-cycle bound at unit noise: the static channel-vector
    CRLB (the same for every trial), the direction CRLB at each trial's
    equivalent-gain SNR for fading gains, NaN otherwise."""
    kind = ec.scenario.kind
    deltas = ec.offsets.deltas
    if isinstance(kind, QuasiStatic):
        value = static_offsets_crlb(deltas, cfg.m, cfg.n, cfg.pilot_amp)
        return np.full(len(ch.x), float(value))
    if isinstance(kind, DynamicI):
        snr_b = cfg.pilot_amp**2 * ch.eta**2 * _stationary_gain_var(kind)
        return np.asarray(di_offsets_crlb(deltas, cfg.m, cfg.n, snr_b), float)
    return np.full(len(ch.x), np.nan)


def _recorded_cycles(ec: ExperimentConfig) -> List[int]:
    """The cycles the CSV records, 1-based: every ``record_every``-th cycle
    and the last one."""
    return [*range(ec.record_every, ec.num_eccs, ec.record_every), ec.num_eccs]


def _run_batch(ec: ExperimentConfig, trials: range):
    """Run trials ``trials`` as one batch.  Returns the per-trial errors
    (err_h, err_x) at the recorded cycles, each (B, R) for the R cycles of
    :func:`_recorded_cycles`, and the per-trial bounds (B,).  Errors are
    computed only at those cycles.

    Per chunk of at most ``CYCLE_CHUNK`` cycles: the normals are drawn
    first, then the chunk's channel trajectory is computed
    (:func:`~.channels.evolve_chunk`), then the cycles run, each reading
    its channel at its index into the trajectory."""
    cfg = effective_array(ec)
    sc = ec.scenario
    tracker_cls, default_schedule = TRACKERS[ec.tracker]
    rngs = _trial_rngs(ec.seed, trials)
    draws = initial_draws(sc, rngs, ec.init_halfwidth)
    ch = init_channel_batch(sc, cfg, draws)
    x0, beta0 = initial_estimate_batch(ch, cfg, ec.offsets, draws)
    sigma_c_sq = _stationary_gain_var(sc.kind)
    gain_var_at = None
    if ec.rbt_sigma_mode == "estimated":
        def gain_var_at(x):
            return estimated_gain_variance(sc, cfg, x, sigma_c_sq)
    run = TrackerRun(cfg, ec.offsets, ec.schedule or default_schedule,
                     ch.eta**2 * sigma_c_sq, gain_var_at)
    tracker = tracker_cls(run, x0, beta0)
    crlb = _crlb_refs(ec, cfg, ch)

    cycles = ec.num_eccs
    recorded = _recorded_cycles(ec)
    evolve = evolve_normals(sc.kind)
    err_h = np.empty((len(rngs), len(recorded)))
    err_x = np.empty((len(rngs), len(recorded)))
    col = 0
    block = np.empty((len(rngs), min(CYCLE_CHUNK, cycles),
                      evolve + NOISE_NORMALS))
    for first in range(0, cycles, CYCLE_CHUNK):
        count = min(CYCLE_CHUNK, cycles - first)
        for rng, rows in zip(rngs, block):
            rng.standard_normal(out=rows[:count])
        # the ground truth does not depend on the tracker: a chunk at once
        x, beta_eff, ch = evolve_chunk(ch, sc, cfg,
                                       block[:, :count, :evolve])
        for j, k in enumerate(range(first + 1, first + count + 1)):
            dirs = tracker.probes()
            y = observe_fast(cfg, x[j], beta_eff[j], dirs,
                             block[:, j, evolve:])
            tracker.update(y)
            if k == recorded[col]:      # the last cycle is always recorded
                err_h[:, col], err_x[:, col] = _channel_errors(
                    cfg, x[j], beta_eff[j], *tracker.estimate())
                col += 1
    return err_h, err_x, crlb


def _records(ec: ExperimentConfig, err_h: np.ndarray, err_x: np.ndarray,
             crlb: np.ndarray) -> List[MetricsRecord]:
    """Reduce per-trial errors (T, R) at the recorded cycles and bounds (T,)
    in trial order by sequential accumulation, so the sums do not depend on
    the batches."""
    sum_h = np.add.accumulate(err_h, axis=0)[-1]
    sum_x = np.add.accumulate(err_x, axis=0)[-1]
    finite = crlb[np.isfinite(crlb)]
    mean_crlb = (np.add.accumulate(finite)[-1] / len(finite) if len(finite)
                 else np.nan)
    trials = ec.num_trials
    return [MetricsRecord(
        ecc=k,
        explorations_total=3 * (k + 1),
        mse_h=float(sum_h[col] / trials),
        mse_x=float(sum_x[col] / trials),
        crlb_ref=float(mean_crlb / k if np.isfinite(mean_crlb) else np.nan),
        trials=trials,
    ) for col, k in enumerate(_recorded_cycles(ec))]


def run_experiment(ec: ExperimentConfig) -> List[MetricsRecord]:
    """Run the configured Monte-Carlo experiment and aggregate per-cycle
    mean squared errors across trials.

    Every tracker consumes exactly 3 probes per cycle plus one bootstrap
    cycle, so ``explorations_total`` = 3 * (ecc + 1) for all of them.
    ``crlb_ref`` reports the relevant achieved CRLB over the cycle count for
    the quasi-static (channel-vector) and fading-gain (direction) scenarios,
    NaN otherwise.
    """
    _validate(ec)
    return _records(ec, *_run_batch(ec, range(ec.num_trials)))


CSV_HEADER = "ecc,explorations_total,mse_h,mse_x,crlb_ref,trials"


def format_csv(records) -> str:
    """The CSV text of ``records``: the header, then one line per record
    with 12-significant-digit decimals, each line ending in LF."""
    return "".join([CSV_HEADER + "\n"] + [
        f"{r.ecc},{r.explorations_total},{r.mse_h:.12g},"
        f"{r.mse_x:.12g},{r.crlb_ref:.12g},{r.trials}\n" for r in records])


def emit_csv(records, path):
    """Write :func:`format_csv` of ``records`` to ``path``."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write(format_csv(records))
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# TOML configuration files
# ---------------------------------------------------------------------------

def parse_config_text(text: str) -> dict:
    """Parse a TOML configuration into its top-level key-value pairs;
    :func:`config_from_mapping` rejects the keys it does not use."""
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigError(f"config: {exc}") from None


def _pop_int(kv: dict, key: str, default: int) -> int:
    value = kv.pop(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key}: expected an integer, got {value!r}")
    return value


def _pop_float(kv: dict, key: str, default: float) -> float:
    value = kv.pop(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not np.isfinite(value)):
        raise ConfigError(f"{key}: expected a finite number, got {value!r}")
    return float(value)


def _pop_str(kv: dict, key: str, default: str) -> str:
    value = kv.pop(key, default)
    if not isinstance(value, str):
        raise ConfigError(f"{key}: expected a string, got {value!r}")
    return value


def _build(keys: str, factory, *args, **kwargs):
    """Call a validating constructor; its ValueError becomes a ConfigError
    naming the config keys it was built from."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"{keys}: {exc}") from None


def config_from_mapping(kv: dict) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from parsed key-value pairs, a
    config file's keys; ``offsets`` is read by :func:`parse_offsets`."""
    kv = dict(kv)
    name = _pop_str(kv, "scenario", "quasi-static")
    if name == "quasi-static":
        kind = _build("rician_k_db", QuasiStatic,
                      rician_k_db=_pop_float(kv, "rician_k_db", 15.0))
    elif name == "dynamic-i":
        kind = _build("sigma_beta_c_sq", DynamicI,
                      sigma_beta_c_sq=_pop_float(kv, "sigma_beta_c_sq", 1.0))
    elif name == "dynamic-ii":
        kind = _build("rho, delta_a_deg", DynamicII,
                      rho=_pop_float(kv, "rho", 0.995),
                      delta_a=float(np.deg2rad(
                          _pop_float(kv, "delta_a_deg", 0.3))))
    else:
        raise ConfigError(f"scenario: unknown scenario {name!r}")
    scenario = ScenarioConfig(kind, _pop_str(kv, "aoa_region", "central"))
    _build("aoa_region", scenario.ranges)

    array = _build("m, n, d1, d2", ArrayConfig,
                   m=_pop_int(kv, "m", 8), n=_pop_int(kv, "n", 8),
                   d1=_pop_float(kv, "d1", 0.5),
                   d2=_pop_float(kv, "d2", 0.5))

    # each schedule takes only its own keys; the others stay in ``kv``
    # and are reported as unused
    schedule = None
    sched_name = kv.pop("schedule", None)
    if sched_name == "diminishing":
        schedule = _build("epsilon, k0", DiminishingStep,
                          _pop_float(kv, "epsilon", 1.0),
                          _pop_float(kv, "k0", 0.0))
    elif sched_name == "constant":
        schedule = _build("step", ConstantStep, _pop_float(kv, "step", 0.7))
    elif sched_name is not None:
        raise ConfigError(f"schedule: unknown schedule {sched_name!r}")

    ec = ExperimentConfig(
        scenario=scenario,
        array=array,
        tracker=_pop_str(kv, "tracker", "JBCT_S"),
        offsets=parse_offsets(_pop_str(kv, "offsets", "tableII")),
        schedule=schedule,
        num_trials=_pop_int(kv, "trials", 1),
        num_eccs=_pop_int(kv, "eccs", 100),
        seed=_pop_int(kv, "seed", 0),
        snr_db=_pop_float(kv, "snr_db", 0.0),
        record_every=_pop_int(kv, "record_every", 1),
        init_halfwidth=_pop_float(kv, "init_halfwidth", 0.5),
        rbt_sigma_mode=_pop_str(kv, "rbt_sigma_mode", "perfect"),
    )
    if kv:
        raise ConfigError(f"unknown or unused keys: {sorted(kv)}")
    _validate(ec)
    return ec


def load_experiment(path) -> ExperimentConfig:
    """The validated experiment of the TOML config file at ``path``."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from None
    return config_from_mapping(parse_config_text(text))
