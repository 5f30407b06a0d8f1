"""Static SVG rendering of loaded transport units.

One SVG per TU with three orthographic projections (top XY, front XZ, side
YZ), box outlines keyed by placement order, the center-of-gravity marker in
each view, and a fill-rate caption. Output is built by plain string
concatenation, so identical solutions render to identical bytes.
"""

from __future__ import annotations

from html import escape

from .geometry import LoadedTu, center_of_gravity, fill_rate

_PALETTE = [
    "#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
    "#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
]

_MARGIN = 14
_CAPTION_H = 22


def _rect(x, y, w, h, fill, extra=""):
    return (
        f'<rect x="{x}" y="{y}" width="{w}" height="{h}" fill="{fill}" '
        f'stroke="#222" stroke-width="1"{extra}/>'
    )


def _view(tu: LoadedTu, axes: str, ox: int, oy: int, cg) -> list[str]:
    """One projection. ``axes`` picks the two placement coordinates shown;
    the vertical screen axis is flipped so up in the TU is up on screen."""
    tut = tu.tu_type
    spans = {"x": tut.x, "y": tut.y, "z": tut.z}
    a, b = axes[0], axes[1]
    width, height = spans[a], spans[b]
    parts = [f'<g class="view-{axes}">']
    parts.append(_rect(ox, oy, width, height, "#f4f4f4"))
    for i, p in enumerate(tu.placements):
        coords = {"x": (p.x, p.w), "y": (p.y, p.l), "z": (p.z, p.h)}
        (pa, wa), (pb, wb) = coords[a], coords[b]
        color = _PALETTE[i % len(_PALETTE)]
        parts.append(
            _rect(ox + pa, oy + height - pb - wb, wa, wb, color, ' fill-opacity="0.65"')
        )
    idx = {"x": 0, "y": 1, "z": 2}
    ca, cb = cg[idx[a]], cg[idx[b]]
    parts.append(
        f'<circle cx="{ox + ca:.1f}" cy="{oy + height - cb:.1f}" r="4" '
        f'fill="#d62728" stroke="#fff" stroke-width="1.5"/>'
    )
    parts.append(
        f'<text x="{ox}" y="{oy - 4}" font-size="11" font-family="sans-serif">'
        f"{axes.upper()}</text>"
    )
    parts.append("</g>")
    return parts


def render_tu_svg(tu: LoadedTu, title: str = "") -> str:
    """Three labelled projections of one TU as a standalone SVG document."""
    tut = tu.tu_type
    views = [("xy", tut.x, tut.y), ("xz", tut.x, tut.z), ("yz", tut.y, tut.z)]
    total_w = _MARGIN
    max_h = 0
    offsets = []
    for _, w, h in views:
        offsets.append(total_w)
        total_w += w + _MARGIN
        max_h = max(max_h, h)
    top = _MARGIN + 14
    total_h = top + max_h + _CAPTION_H
    cg = center_of_gravity(tu).cg if tu.placements else (0.0, 0.0, 0.0)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{total_w}" '
        f'height="{total_h}" viewBox="0 0 {total_w} {total_h}">'
    ]
    for (axes, _, h), ox in zip(views, offsets):
        parts.extend(_view(tu, axes, ox, top + (max_h - h), cg))
    caption = (
        f"{title} {tut.id}: {tu.nbox} boxes, fill {fill_rate(tu):.2f}%, "
        f"weight {tu.total_weight} kg"
    ).strip()
    parts.append(
        f'<text x="{_MARGIN}" y="{total_h - 6}" font-size="12" '
        f'font-family="sans-serif">{escape(caption, quote=False)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
