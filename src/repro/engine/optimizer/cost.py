"""The operator cost model.

Costs are unitless "work" numbers used only to *rank* alternatives;
their absolute scale is meaningless.  The weights encode the paper-era
truths the optimizer must respect:

* a page read costs far more than touching a row already in memory
  (the paper's Table 1 is dominated by I/O);
* an index range scan reads only the pages its key range covers, plus
  the unsorted tail writes appended since the last clustered build;
* a hash join is linear in both inputs, a nested loop is quadratic —
  which is exactly why the appendix's zone join beats the cursor.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Tunable weights; defaults favor I/O avoidance, as the paper does."""

    page_io: float = 25.0     # one page read
    cpu_row: float = 1.0      # touch/emit one row
    hash_build: float = 1.5   # insert one row into a hash table
    hash_probe: float = 1.0   # probe one row against it
    loop_pair: float = 0.5    # evaluate one nested-loop candidate pair
    sort_row: float = 0.25    # one comparison inside an n·log n sort
    band_probe: float = 2.0   # one binary-search probe into sorted keys

    # ------------------------------------------------------------------
    # access paths
    # ------------------------------------------------------------------
    def seq_scan(self, rows: float, pages: float) -> float:
        return pages * self.page_io + rows * self.cpu_row

    def index_range_scan(
        self, est_rows: float, table_rows: float, pages: float,
        tail_pages: float = 0.0,
    ) -> float:
        """Index range scan: touch the covered page fraction plus every
        tail page — never more pages than the table has."""
        fraction = 0.0 if table_rows <= 0 else min(est_rows / table_rows, 1.0)
        read = min(pages * fraction + tail_pages, pages)
        return read * self.page_io + est_rows * self.cpu_row

    def filter(self, input_rows: float) -> float:
        return input_rows * self.cpu_row

    # ------------------------------------------------------------------
    # joins
    # ------------------------------------------------------------------
    def hash_join(self, left_rows: float, right_rows: float,
                  output_rows: float) -> float:
        return (right_rows * self.hash_build
                + left_rows * self.hash_probe
                + output_rows * self.cpu_row)

    def nested_loop_join(self, left_rows: float, right_rows: float,
                         output_rows: float) -> float:
        return left_rows * right_rows * self.loop_pair + output_rows * self.cpu_row

    def band_join(self, left_rows: float, right_rows: float,
                  output_rows: float) -> float:
        """Sort the right side once, binary-search it per left row, and
        touch only the band survivors — n·log n + probes instead of the
        nested loop's full cross product."""
        import math

        sort = right_rows * math.log2(max(right_rows, 2.0)) * self.sort_row
        probe = left_rows * self.band_probe
        return sort + probe + output_rows * self.cpu_row

    def join(self, left_rows: float, right_rows: float, output_rows: float,
             has_equi: bool, has_band: bool = False) -> float:
        if has_equi:
            return self.hash_join(left_rows, right_rows, output_rows)
        if has_band:
            return self.band_join(left_rows, right_rows, output_rows)
        return self.nested_loop_join(left_rows, right_rows, output_rows)


#: The model every planner instance shares unless a test swaps weights.
DEFAULT_COST_MODEL = CostModel()
