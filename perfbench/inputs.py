"""Seeded input generators owned by the benchmark.

Nothing here imports sigpat, so no change to the program can change the
inputs. Both generators fix every per-class count and let the seed decide
only *which* transactions or individuals carry an item. That keeps the
amount of search work nearly the same from seed to seed (plain Bernoulli
cells move the node count by about 10% between seeds, because the search
cost grows steeply with the realised density), while each seed is still a
different input file.

Only ``random.Random(int)`` with ``sample`` and ``shuffle`` is used; CPython
keeps those sequences stable across versions.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write_tct(
    path: Path,
    seed: int,
    n_case: int,
    n_control: int,
    n_items: int,
    density: float,
    planted: int,
    planted_cases: int,
    planted_controls: int,
) -> dict:
    """Random labelled transactions with one planted case-enriched block.

    Background item ``i<k>`` sits in exactly round(density * n) transactions
    of each class, so every background item has the same 2x2 table and no
    signal of its own. The ``planted`` items ``p<k>`` sit jointly in
    ``planted_cases`` cases and ``planted_controls`` controls, which makes
    them one strongly discriminative closed pattern. Lines are shuffled, so
    labels interleave and the loader's cases-first reordering is exercised.
    """
    rng = random.Random(seed)
    n = n_case + n_control
    tx: list[list[str]] = [[] for _ in range(n)]
    cases = range(n_case)
    controls = range(n_case, n)
    k_case = round(density * n_case)
    k_control = round(density * n_control)
    for i in range(n_items):
        for j in rng.sample(cases, k_case) + rng.sample(controls, k_control):
            tx[j].append(f"i{i}")
    names = [f"p{k}" for k in range(planted)]
    for j in rng.sample(cases, planted_cases) + rng.sample(controls, planted_controls):
        tx[j].extend(names)
    order = list(range(n))
    rng.shuffle(order)
    text = "".join(
        ("1" if j < n_case else "0") + " " + " ".join(tx[j]) + "\n" for j in order
    )
    path.write_text(text, encoding="utf-8")
    return {
        "shape": {
            "cases": n_case,
            "controls": n_control,
            "items": n_items + planted,
            "density": density,
        },
        "planted": names,
        "sha256": sha256_file(path),
    }


# Shares of genotypes 0, 1 and 2 in each class for a background SNP.
_BACKGROUND = (0.45, 0.40, 0.15)


def _class_genotypes(rng: random.Random, size: int, carriers: int) -> list[int]:
    """``carriers`` individuals get genotype 2; the rest split 0/1 45:40."""
    rest = size - carriers
    zeros = round(rest * _BACKGROUND[0] / (_BACKGROUND[0] + _BACKGROUND[1]))
    cells = [0] * zeros + [1] * (rest - zeros) + [2] * carriers
    rng.shuffle(cells)
    return cells


def write_genotype(
    matrix_path: Path,
    labels_path: Path,
    seed: int,
    n_case: int,
    n_control: int,
    n_snps: int,
    pair: tuple[int, int],
    pair_carriers: tuple[int, int],
    markers: int,
    marker_carriers: tuple[int, int],
) -> dict:
    """A SNP matrix with a planted case-enriched pair and weaker markers.

    Modelled on ``planted_genotype_matrix`` in the test suite, with counts
    fixed per class: a background SNP has the same genotype counts in cases
    and controls (association p-value exactly 1). The two ``pair`` SNPs take
    genotype 2 jointly in ``pair_carriers`` (cases, controls) individuals.
    The ``markers`` SNPs following the pair each take genotype 2 in
    ``marker_carriers`` individuals, placed independently. The filter's
    keep/drop decisions therefore do not depend on the seed; which
    individuals carry what does. Columns are shuffled so the loader's
    case-first ordering is exercised.
    """
    rng = random.Random(seed)
    snps = [f"rs{k:05d}" for k in range(1, n_snps + 1)]
    background = round(n_case * _BACKGROUND[2]), round(n_control * _BACKGROUND[2])
    marker_ids = set(range(pair[1] + 1, pair[1] + 1 + markers))
    joint_case = set(rng.sample(range(n_case), pair_carriers[0]))
    joint_control = set(rng.sample(range(n_control), pair_carriers[1]))

    def planted_row(joint: set[int], size: int) -> list[int]:
        cells = _class_genotypes(rng, size - len(joint), 0)
        return [2 if j in joint else cells.pop() for j in range(size)]

    columns = list(range(n_case + n_control))
    rng.shuffle(columns)
    individuals = [f"ind{k:04d}" for k in range(1, n_case + n_control + 1)]
    lines = ["snp," + ",".join(individuals[k] for k in columns)]
    for s, snp in enumerate(snps):
        if s in pair:
            row = planted_row(joint_case, n_case) + planted_row(joint_control, n_control)
        else:
            carriers = marker_carriers if s in marker_ids else background
            row = _class_genotypes(rng, n_case, carriers[0]) + _class_genotypes(
                rng, n_control, carriers[1]
            )
        lines.append(snp + "," + ",".join(str(row[k]) for k in columns))
    matrix_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    labels_path.write_text(
        "".join(
            f"{ind},{1 if k < n_case else 0}\n" for k, ind in enumerate(individuals)
        ),
        encoding="utf-8",
    )
    return {
        "shape": {
            "cases": n_case,
            "controls": n_control,
            "snps": n_snps,
            "markers": markers,
        },
        "planted": [f"{snps[pair[0]]}_2", f"{snps[pair[1]]}_2"],
        "sha256": sha256_file(matrix_path),
        "labels_sha256": sha256_file(labels_path),
    }
