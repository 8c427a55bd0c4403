"""Reference breakdown search the tests check the exact regional search against.

dfs_regional_breakdown is the search over every per-region flip allocation
that exhaustive_breakdown ran for a fixed partition before it became an
end-state knapsack. It walks flip counts k upward and, for each k, tries
allocations in lexicographic order, re-tallying each one region by region
with plurality_winner, so it returns the lexicographically first minimal
allocation. Its runtime grows combinatorially with the budget and the
region count: keep grids to a few dozen cells.
"""

from cell_oracles import region_of
from regionvote.breakdown import BreakdownResult, RegionalScheme, scheme_label, scheme_winner
from regionvote.noise import BlockNoiseSpec
from regionvote.voting import plurality_winner


def dfs_regional_breakdown(grid, partition, flip_budget=None, target=0, flip_to=1):
    """exhaustive_breakdown's result for RegionalScheme(partition), by DFS."""
    budget = grid.n_cells // 4 if flip_budget is None else flip_budget
    scheme = RegionalScheme(partition)
    if scheme_winner(grid, scheme) != target:
        raise ValueError("grid winner is not the target")
    dims = (grid.width, grid.height)
    n_regions = partition.region_count(dims)
    region_counts = [[0] * grid.candidate_count for _ in range(n_regions)]
    region_target_cells = [[] for _ in range(n_regions)]
    for idx, vote in enumerate(grid.votes.tolist()):
        rid = region_of(partition, dims, (idx % grid.width, idx // grid.width))
        region_counts[rid][vote] += 1
        if vote == target:
            region_target_cells[rid].append(idx)
    caps = [len(cells) for cells in region_target_cells]
    base_winners = [plurality_winner(c) for c in region_counts]
    base_won = [0] * grid.candidate_count
    for w in base_winners:
        if w is not None:
            base_won[w] += 1

    def try_allocation(alloc):
        won = list(base_won)
        for rid, f in enumerate(alloc):
            if f == 0:
                continue
            adjusted = list(region_counts[rid])
            adjusted[target] -= f
            adjusted[flip_to] += f
            new_w = plurality_winner(adjusted)
            if base_winners[rid] is not None:
                won[base_winners[rid]] -= 1
            if new_w is not None:
                won[new_w] += 1
        overall = plurality_winner(won)
        return overall is not None and overall != target

    alloc = [0] * n_regions

    def dfs(rid, remaining):
        if rid == n_regions:
            return remaining == 0 and try_allocation(alloc)
        if remaining > sum(caps[rid:]):
            return False
        for f in range(0, min(caps[rid], remaining) + 1):
            alloc[rid] = f
            if dfs(rid + 1, remaining - f):
                return True
        alloc[rid] = 0
        return False

    label = scheme_label(scheme)
    for k in range(1, min(budget, sum(caps)) + 1):
        if dfs(0, k):
            cells = tuple(
                (idx % grid.width, idx // grid.width)
                for rid, f in enumerate(alloc)
                for idx in region_target_cells[rid][:f]
            )
            witness = BlockNoiseSpec(1, cells, target, flip_to, 1.0)
            return BreakdownResult(label, "exhaustive", k, witness)
    return BreakdownResult(label, "exhaustive", None, None)
