"""Epoch-based preference estimation from tiered purchase streams.

Showing a tier with a fixed product set repeatedly until its first
no-purchase makes the number of purchases of product i inside that window a
geometric variable on {0, 1, ...} with mean v_i, no matter what else the
tier contains.  The ledger therefore segments the step stream into per-tier
*epochs*:

* a tier-1 epoch covers consecutive steps and closes on the first step whose
  customer does not buy from tier 1;
* a tier-2 epoch covers the steps on which tier 2 is actually viewed (those
  without a tier-1 purchase) and closes when a customer leaves with nothing.

The closing step belongs to the epoch it closes.  Both tiers feed one shared
completed-epoch counter, and a tier's next epoch is labeled with the
counter's value after all closures of the current step are tallied — so a
label says how many epochs (of either tier) finished strictly before the
epoch began.  A tier's offered set is locked for the lifetime of each of its
epochs; changing it mid-epoch is an error because it would break the
geometric-count argument above.

``EpochLedger.record_step`` returns the epochs a step closed, one slot per
tier, and that slot and step fix a record's tier and steps.  An open epoch
is its record, filled in as its steps come.  The ledger keeps the records
(label, offered set, purchases) and, per product, the pooled epoch and
purchase totals; it keeps no step log.  Its rows are the catalog's ranks
(``Catalog._rank``), the order the optimizer's frames and the policies'
valuation vectors use.  Policies keep an offer object while its answer
stands, so the epoch lock compares a tier's set by identity first.  A set's
ranks are computed once, on the step that first shows it, where an id
outside the catalog is refused.

Averaging a product's per-epoch purchase counts over every completed epoch
that offered it (either tier) estimates its preference weight.
``valuation_ucb`` adds the optimism margin the learning policies rely on;
they read it for many products at once by catalog rank (``_ucb``), which
takes one ``math.log`` per distinct launch label.  A product's launch slot
is fixed when the first epoch offering it closes.  ``min_learning_epochs``
converts an (accuracy, confidence) target into the number of epochs a
product must be shown.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .errors import ConfigError, InvalidOfferError, NeverOfferedError, OutcomeMismatchError
from .model import Catalog, ChoiceOutcome, TieredOffer, _finite, sorted_ids

# Multiplier on ln(K * rounds + 1) / T_i inside the optimism margin.  The
# analysis behind the regret guarantee fixes this at 48; it is a module
# constant (with per-call override), and the diagnostics' optimism check,
# which writes 48 out, fails when it changes.
UCB_CONFIDENCE_SCALE = 48.0


class EpochRecord:
    """One epoch: its label, locked offer, and purchases.

    ``purchases`` maps product id to how many of the epoch's steps bought
    it.  The ledger fills the record while the epoch is open (``offered`` is
    None until its first viewed step); once returned it never changes.  Its
    tier and steps follow from the slot and step it came back on.
    """

    __slots__ = ("label", "offered", "purchases")

    def __init__(self, label: int, offered: frozenset | None, purchases: dict):
        self.label = label
        self.offered = offered
        self.purchases = purchases

    def purchases_of(self, product_id) -> int:
        return self.purchases.get(product_id, 0)


def _check_confidence_scale(scale) -> None:
    """Refuse a scale that is neither None (the default) nor finite and >= 0."""
    if scale is not None and _finite(scale, ConfigError, "confidence_scale") < 0.0:
        raise ConfigError(f"confidence_scale must be >= 0, got {scale!r}")


class EpochLedger:
    """Segments a recorded step stream into epochs and keeps the per-product
    purchase statistics the estimators read.

    ``completed`` is the shared epoch counter; ``steps_recorded`` the number
    of steps seen.  Only completed epochs contribute to estimates — an open
    epoch is invisible until it closes.

    Its rows are the ranks of ``catalog``: a product's pooled totals
    (epochs, purchases, launch slot) sit in arrays under its rank, so the
    optimistic index of many products is one vector expression.  ``_ucb``
    and ``_means`` read ranks alone, and a closing epoch reuses the ranks
    taken when its set was first shown.  An offer holding an id outside the
    catalog is refused before anything is tallied.
    """

    def __init__(self, catalog: Catalog):
        self.completed = 0
        self.steps_recorded = 0
        self._catalog = catalog
        self._open = [EpochRecord(0, None, {}), EpochRecord(0, None, {})]
        self._closed: tuple[list[EpochRecord], list[EpochRecord]] = ([], [])
        n = len(catalog.products)
        self._epochs_total = np.zeros(n, dtype=np.int64)
        self._purchases_total = np.zeros(n, dtype=np.int64)
        # each distinct launch label once, in order of first use, and each
        # launched rank's position among them, fixed at its first close
        self._launch_values: list[int] = []
        self._launch_slot = np.zeros(n, dtype=np.intp)
        # the ranks of every offered set closed so far, and of those only shown
        self._set_rows: dict[frozenset, np.ndarray] = {}
        self._new_rows: dict[frozenset, np.ndarray] = {}

    # --- recording -------------------------------------------------------

    def record_step(
        self, offer: TieredOffer, outcome: ChoiceOutcome
    ) -> tuple[EpochRecord | None, EpochRecord | None]:
        """Tally one customer's outcome under ``offer``.

        The offer must have exactly two tiers of catalog ids and, within
        each open epoch, the same tier contents as when the epoch first
        showed them.  Returns the records of the epochs the step closed,
        indexed by tier: the tier-1 record or None, then the tier-2 record
        or None.
        """
        tiers = offer.tiers
        if len(tiers) != 2:
            raise InvalidOfferError(
                f"epoch accounting expects a two-tier offer, got {len(tiers)} tiers"
            )
        product, tier = outcome.product, outcome.tier
        if product is not None:
            if tier not in (0, 1):
                raise OutcomeMismatchError(
                    f"outcome tier index {tier!r} is not a two-tier index"
                )
            if product not in tiers[tier]:
                raise OutcomeMismatchError(
                    f"product {product!r} was not offered in tier {tier + 1}"
                )
        for offered in tiers:  # an id outside the catalog raises before any tally
            if offered not in self._set_rows and offered not in self._new_rows:
                self._new_rows[offered] = self._catalog._indices(offered)
        viewed, opens = (0, 1) if tier != 0 else (0,), self._open
        for k in viewed:  # both locks hold before anything changes
            locked = opens[k].offered
            if locked is not None and locked is not tiers[k] and locked != tiers[k]:
                raise InvalidOfferError(
                    f"tier {k + 1} changed during epoch {opens[k].label}: locked "
                    f"{sorted_ids(locked)}, got {sorted_ids(tiers[k])}"
                )
        self.steps_recorded += 1
        for k in viewed:
            if opens[k].offered is None:
                opens[k].offered = tiers[k]
        if product is not None:
            purchases = self._open[tier].purchases
            purchases[product] = purchases.get(product, 0) + 1
        if tier == 0:
            return None, None
        # tier 1 closes exactly when the customer moves past it, tier 2 when
        # the customer walks away entirely; both reopen only after every
        # closure of the step is tallied
        closed1 = self._close(0)
        closed2 = None if product is not None else self._close(1)
        self._open[0] = EpochRecord(self.completed, None, {})
        if closed2 is not None:
            self._open[1] = EpochRecord(self.completed, None, {})
        return closed1, closed2

    def _close(self, k: int) -> EpochRecord:
        record = self._open[k]
        self._closed[k].append(record)
        self.completed += 1
        offered = record.offered
        rows = self._set_rows.get(offered)
        if rows is None:  # the set's first close
            rows = self._set_rows[offered] = self._new_rows.pop(offered)
            # one product's epochs complete in label order (its tiers are
            # disjoint and locked while open), so the first closure that
            # offers it carries its launch epoch
            new = rows[self._epochs_total[rows] == 0]
            if len(new):
                values = self._launch_values
                if record.label not in values:
                    values.append(record.label)
                self._launch_slot[new] = values.index(record.label)
        self._epochs_total[rows] += 1
        rank = self._catalog._rank
        for i, n in record.purchases.items():
            self._purchases_total[rank[i]] += n
        return record

    # --- estimates -------------------------------------------------------

    def valuation_estimate(self, product_id) -> float:
        """Mean purchases per completed epoch offering the product, pooled
        across both tiers."""
        if not self.has_estimate(product_id):
            raise NeverOfferedError(product_id)
        return float(self._means(self._catalog._indices((product_id,)))[0])

    def _means(self, ranks: np.ndarray) -> np.ndarray:
        """Mean purchases per completed epoch of the products at catalog
        ``ranks``, 0.0 for a product never offered (its purchases are 0
        too): int64 over int64 rounds like Python's int / int below 2**53."""
        return self._purchases_total[ranks] / np.maximum(self._epochs_total[ranks], 1)

    def valuation_ucb(
        self,
        product_id,
        epoch: int,
        n_products: int,
        confidence_scale: float | None = None,
    ) -> float:
        """Optimistic preference index of one product at epoch ``epoch``:

            vbar + sqrt(vbar * pad) + pad,
            pad = scale * ln(n_products * (epoch - launch_epoch) + 1) / T_i

        where vbar and T_i pool every completed epoch that offered the
        product and launch_epoch is the label of the earliest one.  A
        negative epoch gap clamps to zero (margin vanishes rather than the
        logarithm going undefined).  The logarithm is ``math.log`` (``np.log``
        may differ in the last place).  ``epoch`` and ``n_products`` must be
        integers in [0, 2**53] and [1, 2**53], the scale None or finite and >= 0.
        """
        for name, value, least in (("epoch", epoch, 0), ("n_products", n_products, 1)):
            # at most 2**53 each, so that the log's argument stays a finite float
            integral = isinstance(value, numbers.Integral) and not isinstance(value, bool)
            if not (integral and least <= value <= 2**53):
                raise ConfigError(f"{name} must be an integer in [{least}, 2**53], got {value!r}")
        _check_confidence_scale(confidence_scale)
        if not self.has_estimate(product_id):
            raise NeverOfferedError(product_id)
        rank = self._catalog._indices((product_id,))
        return float(self._ucb(rank, epoch, n_products, confidence_scale)[0])

    def _ucb(self, ranks: np.ndarray, epoch: int, n_products: int, confidence_scale) -> np.ndarray:
        """``valuation_ucb`` of the estimated products at catalog ``ranks``,
        bit for bit: one ``math.log`` per distinct launch label."""
        scale = UCB_CONFIDENCE_SCALE if confidence_scale is None else confidence_scale
        # ln(n * 0 + 1) is exactly 0.0, which covers the clamped gaps
        logs = np.array(
            [
                math.log(n_products * (epoch - start) + 1.0) if epoch > start else 0.0
                for start in self._launch_values
            ]
        )
        epochs = self._epochs_total[ranks]
        mean = self._purchases_total[ranks] / epochs
        pad = scale * logs[self._launch_slot[ranks]] / epochs
        return mean + np.sqrt(mean * pad) + pad

    # --- accessors -------------------------------------------------------

    def has_estimate(self, product_id) -> bool:
        return self.times_offered(product_id) > 0

    def times_offered(self, product_id) -> int:
        """Completed epochs (both tiers) whose offer included the product."""
        j = self._catalog._rank.get(product_id)
        return 0 if j is None else int(self._epochs_total[j])

    def purchase_total(self, product_id) -> int:
        j = self._catalog._rank.get(product_id)
        return 0 if j is None else int(self._purchases_total[j])

    def launch_epoch(self, product_id) -> int | None:
        if not self.has_estimate(product_id):
            return None
        return self._launch_values[self._launch_slot[self._catalog._rank[product_id]]]

    def epochs(self, tier_index: int) -> tuple[EpochRecord, ...]:
        return tuple(self._closed[tier_index])

    def open_labels(self) -> tuple[int, int]:
        return (self._open[0].label, self._open[1].label)


# --- minimum-learning sizing ---------------------------------------------------


def min_learning_epochs(epsilon: float, alpha: float) -> int:
    """Epochs of exposure after which a preference estimate is within
    ``epsilon`` of the truth with probability at least 1 - ``alpha``:

        ceil( 192 * ln(2/alpha + 1) / (-1 + sqrt(1 + 4*epsilon))^2 )
    """
    if not epsilon > 0.0:
        raise ConfigError(f"accuracy epsilon must be > 0, got {epsilon!r}")
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"confidence alpha must lie in (0, 1), got {alpha!r}")
    root = -1.0 + math.sqrt(1.0 + 4.0 * epsilon)
    epochs = 192.0 * math.log(2.0 / alpha + 1.0) / root**2 if root > 0.0 else math.inf
    if not math.isfinite(epochs):
        raise ConfigError(f"epsilon={epsilon!r}, alpha={alpha!r} need more epochs than a float holds")
    return math.ceil(epochs)
