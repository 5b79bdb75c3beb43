"""Re-derivation of the atlas entries that beltrami.atlas_table stores.

The eigenvalue 5 basis is a list of polynomial seed fields made orthogonal
by exact Gram-Schmidt; the entries -2..-5 are the positive bases pushed
forward through the orientation-reversing reflection x4 -> -x4, which
conjugates curl to -curl and keeps every squared norm.  The tests compare
the stored table with these derivations field by field and term by term.

Run as a script to print the text of the table module:

    PYTHONPATH=src python tests/atlas_oracle.py > src/beltrami/atlas_table.py
"""

from __future__ import annotations

from typing import List, Tuple

from beltrami.atlas import explicit_basis
from beltrami.exactpoly import Poly4, canonicalize, parity_classes
from beltrami.frames import FrameField, REFLECTION, isometry_pushforward

# The table's entries, in the order the module lists them.
TABLE_EIGENVALUES = (5, -2, -3, -4, -5)


def mu5_fields() -> Tuple[List[FrameField], list]:
    """Denominator-cleared orthogonal basis of eigenvalue 5 and its norms.

    Each member is a polynomial seed field made orthogonal to all earlier
    members by exact Gram-Schmidt; the correction coefficients come out
    rational, so the cleared fields stay exact.  A few members carry an
    overall minus sign to fix the orientation convention of the basis.
    """
    x, y, zz, w = (Poly4.variable(i) for i in range(1, 5))
    z = Poly4.zero()
    seeds = [
        (z, x * zz**2 - x * w**2 - 2 * y * zz * w,
         w**2 * y - zz**2 * y - 2 * x * zz * w),
        (z, 3 * x * y**2 - x**3, 3 * x**2 * y - y**3),
        (z, y**3 - 3 * x**2 * y, 3 * x * y**2 - x**3),
        (z, y * zz**2 + 2 * x * zz * w - w**2 * y,
         x * zz**2 - x * w**2 - 2 * w * y * zz),
        (z, y**2 * w - 2 * x * y * zz - x**2 * w,
         y**2 * zz - x**2 * zz + 2 * x * y * w),
        (z, 3 * zz**2 * w - w**3, zz**3 - 3 * w**2 * zz),
        (z, x**2 * zz - y**2 * zz - 2 * x * y * w,
         y**2 * w - x**2 * w - 2 * x * y * zz),
        (z, zz**3 - 3 * w**2 * zz, w**3 - 3 * zz**2 * w),
        (x**3 - 3 * x * w**2, w**3 - 3 * x**2 * w, z),
        (x**2 * y - 2 * x * zz * w - w**2 * y,
         w**2 * zz - 2 * x * y * w - x**2 * zz, z),
        (x**2 * zz + 2 * x * y * w - w**2 * zz,
         x**2 * y - 2 * x * zz * w - w**2 * y, z),
        (x * y**2 - x * zz**2 - 2 * w * y * zz,
         w * zz**2 - w * y**2 - 2 * x * y * zz, z),
        (y**2 * w - zz**2 * w + 2 * x * y * zz,
         x * y**2 - x * zz**2 - 2 * y * zz * w, z),
        (3 * y**2 * zz - zz**3, y**3 - 3 * y * zz**2, z),
        (3 * y * zz**2 - y**3, 3 * y**2 * zz - zz**3, z),
        (3 * x**2 * w - w**3, x**3 - 3 * x * w**2, z),
        (w**2 * zz + 2 * x * y * w - y**2 * zz, z,
         x * y**2 - x * w**2 + 2 * w * y * zz),
        (3 * x**2 * zz - zz**3, z, 3 * x * zz**2 - x**3),
        (x * y**2 - x * w**2 + 2 * w * y * zz, z,
         y**2 * zz - 2 * x * y * w - w**2 * zz),
        (zz**2 * w + 2 * x * y * zz - x**2 * w, z,
         y * zz**2 - x**2 * y - 2 * x * zz * w),
        (3 * w**2 * y - y**3, z, 3 * y**2 * w - w**3),
        (3 * x * zz**2 - x**3, z, zz**3 - 3 * x**2 * zz),
        (y * zz**2 - x**2 * y - 2 * x * zz * w, z,
         x**2 * w - w * zz**2 - 2 * x * y * zz),
        (3 * y**2 * w - w**3, z, y**3 - 3 * w**2 * y),
    ]
    negated = {14, 16, 17, 20, 21, 23}
    fields: List[FrameField] = []
    norms: list = []  # exact squared norms, each integrated once
    classes: list = []  # parity classes per frame slot of each member
    for j, coefficients in enumerate(seeds, start=1):
        f = seed = FrameField(*(canonicalize(p) for p in coefficients))
        seed_classes = [parity_classes(c) for c in seed.f]
        for prev, norm, prev_classes in zip(fields, norms, classes):
            # An overlap with no parity class shared on any frame slot is
            # exactly zero (exactpoly.parity_class).
            if not any(a & b for a, b in zip(seed_classes, prev_classes)):
                continue
            # <f, prev> = <seed, prev>: the earlier members are orthogonal.
            overlap = seed.l2_inner(prev)
            if not overlap.is_zero():
                f = f - prev.scale((overlap / norm).as_rational())
        if j in negated:
            f = f.scale(-1)
        fields.append(f)
        norms.append(f.l2_inner(f))
        classes.append([parity_classes(c) for c in f.f])
    return fields, norms


def derived_entry(eigenvalue: int) -> Tuple[str, List[FrameField], list]:
    """(label, fields, squared norms) of a table entry, re-derived: the
    reflection of a positive entry keeps its norms."""
    if eigenvalue == 5:
        return ("explicit", *mu5_fields())
    if eigenvalue > 0:  # a closed form of beltrami.atlas
        entry = explicit_basis(eigenvalue)
        return entry.label, entry.fields, entry.squared_norms
    _, fields, norms = derived_entry(-eigenvalue)
    return ("reflected",
            [isometry_pushforward(f, REFLECTION) for f in fields], norms)


def _part_text(part: Poly4) -> str:
    return "(" + "".join(
        f"({e!r}, {c.numerator}, {c.denominator}), "
        for e, c in part.terms.items()).rstrip(" ") + ")"


def _field_text(field: FrameField) -> str:
    return "(" + ", ".join(
        f"({_part_text(c.even_part)}, {_part_text(c.odd_part)})"
        for c in field.f) + "),"


def _norm_text(norm) -> str:
    if set(norm.terms) != {2}:
        raise ValueError(f"squared norm {norm} is not a multiple of pi^2")
    c = norm.terms[2]
    return f"({c.numerator}, {c.denominator})"


def table_text() -> str:
    """The source of beltrami.atlas_table, one field per line."""
    lines = [
        '"""Exact data of the derived atlas entries: eigenvalue 5 and the',
        'reflected -2..-5.  Generated by tests/atlas_oracle.py, which',
        're-derives it; do not edit by hand.',
        '',
        'ENTRIES maps an eigenvalue to (label, fields, squared norms).  A field',
        'is its three frame coefficients, each an (even part, odd part) pair of',
        '(reduced exponent, numerator, denominator) triples in term order; a',
        'squared norm is (numerator, denominator) of its pi^2 coefficient.',
        '"""',
        '',
        'ENTRIES = {',
    ]
    for mu in TABLE_EIGENVALUES:
        label, fields, norms = derived_entry(mu)
        lines += [f"    {mu}: (", f"        {label!r},", "        ("]
        lines += [f"            {_field_text(f)}" for f in fields]
        lines += ["        ),", "        ("]
        lines += [f"            {_norm_text(n)}," for n in norms]
        lines += ["        ),", "    ),"]
    return "\n".join(lines + ["}", ""])


if __name__ == "__main__":
    print(table_text(), end="")
