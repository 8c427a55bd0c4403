"""Per-cell reference code the tests check the array paths against.

region_of maps one cell to its region, cells_of_region lists one
region's cells, and scan_contaminated walks every cell of every noise
block. They are slow on purpose: each follows the definitions cell by
cell, with none of the lattice arithmetic the package uses.
"""

from regionvote.grid import Cell, GridDims, Partition


def region_of(partition: Partition, dims: GridDims, cell: Cell) -> int:
    """Row-major region index of a cell under a shifted partition.

    The shift wraps: region column is floor(((x + dx) mod l) / region_width)
    and likewise for rows, so cells pushed past the right or bottom border
    re-enter on the opposite side.
    """
    partition.validate_for(dims)
    width, height = dims
    x, y = cell
    if not (0 <= x < width and 0 <= y < height):
        raise ValueError(f"cell ({x}, {y}) outside {width}x{height} grid")
    col = ((x + partition.dx) % width) // partition.region_width
    row = ((y + partition.dy) % height) // partition.region_height
    return col + (width // partition.region_width) * row


def cells_of_region(partition: Partition, dims: GridDims, region: int) -> frozenset[Cell]:
    """The set of cells mapping to the given region index.

    Inverse-consistent with region_of: every returned cell maps back to
    the index, and each region receives exactly region_width *
    region_height cells.
    """
    partition.validate_for(dims)
    width, height = dims
    n_cols = width // partition.region_width
    n_rows = height // partition.region_height
    if not (0 <= region < n_cols * n_rows):
        raise ValueError(f"region {region} out of range [0, {n_cols * n_rows})")
    col = region % n_cols
    row = region // n_cols
    cells = []
    for sy in range(partition.region_height):
        y = (row * partition.region_height + sy - partition.dy) % height
        for sx in range(partition.region_width):
            x = (col * partition.region_width + sx - partition.dx) % width
            cells.append((x, y))
    return frozenset(cells)


def scan_contaminated(dims: GridDims, partition: Partition, spec) -> frozenset[int]:
    """Regions holding at least one cell of a noise block, found by walking
    every cell of every block."""
    return frozenset(region_of(partition, dims, cell) for cell in spec.cells())
