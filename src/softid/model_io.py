"""Chain description files: JSON schema, parsing, validation, serialization.

All physical quantities are SI: meters, kilograms, seconds, pascals.  A
description document looks like::

    {
      "schema_version": 1,
      "base": {"translation": [0, 0, 0],
               "rotation": {"axis_angle": {"axis": [1, 0, 0], "angle": -1.5708}}},
      "gravity": [0.0, 0.0, -9.81],
      "links": [
        {"joint": {"kind": "fixed"},
         "body": {"kind": "pcc",
                  "geometry": {"shape": "cylinder", "radius": 0.01, "length": 0.3},
                  "rho": 1070.0, "C": 5.55e8, "eta": 0.333,
                  "quadrature_order": [3, 8, 6]}}
      ]
    }

Joint kinds: fixed, revolute, prismatic (with "axis"), rotated_base (with
"rotation"/"translation").  Body kinds: rigid, pcc, pcc_planar, pac, pcs,
pgc, pcc_variable_radius, lvp.  Anchors default to the top face of
cylindrical/conical geometries; a body may instead set "free_tip": true
(gripper-like last bodies).  Parsed chains keep their normalized document
for lossless serialization.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .bodies import (
    PRIMITIVE_KINDS,
    CosseratRodBody,
    LvpBody,
    RigidBody,
    VariableRadiusPccBody,
    pac_basis,
    pcc_basis,
    pcs_basis,
    pgc_basis,
)
from .kinematics import BodyHandle, ChainModel, Joint, Link
from .quadrature import DEFAULT_ORDER, MAX_ORDER, MIN_ORDER, ReferenceDomain
from .spatial import Transform, rodrigues, rotation_from_quaternion

SCHEMA_VERSION = 1

BODY_KINDS = ("rigid", "pcc", "pcc_planar", "pac", "pcs", "pgc", "pcc_variable_radius", "lvp")


class ModelError(ValueError):
    """Malformed or inconsistent chain description."""


def _vec3(doc, name):
    v = np.asarray(doc, dtype=float)
    if v.shape != (3,):
        raise ModelError(f"{name} must be a 3-vector")
    return v


def _rotation(doc, name):
    if doc is None:
        return np.eye(3)
    if "axis_angle" in doc:
        aa = doc["axis_angle"]
        return rodrigues(_vec3(aa["axis"], f"{name}.axis"), float(aa["angle"]))
    if "quaternion" in doc:
        quat = np.asarray(doc["quaternion"], dtype=float)
        if quat.shape != (4,):
            raise ModelError(f"{name}.quaternion must be scalar-first [w, x, y, z]")
        return rotation_from_quaternion(quat)
    raise ModelError(f"{name} must give 'axis_angle' or 'quaternion'")


def _geometry(doc, kind):
    if doc is None:
        raise ModelError(f"body kind {kind!r} requires a 'geometry' object")
    shape = doc.get("shape")
    if shape == "cylinder":
        return ReferenceDomain.cylinder(float(doc["radius"]), float(doc["length"]))
    if shape == "truncated_cone":
        return ReferenceDomain.truncated_cone(
            float(doc["base_radius"]), float(doc["tip_radius"]), float(doc["length"])
        )
    if shape == "box":
        return ReferenceDomain.box(_vec3(doc["half_extents"], "half_extents"),
                                   _vec3(doc.get("center", (0, 0, 0)), "center"))
    raise ModelError(f"unknown geometry shape {shape!r}")


def _default_anchors(domain: ReferenceDomain):
    """Anchors on the distal (x3 = length) face for axial geometries."""
    p = domain.params
    if domain.kind == "cylinder":
        r, length = p["radius"], p["length"]
    elif domain.kind == "truncated_cone":
        r, length = p["tip_radius"], p["length"]
    else:
        half, center = p["half"], p["center"]
        r = 0.5 * min(half[0], half[1])
        length = center[2] + half[2]
    return {
        "x_j": [0.0, 0.0, length],
        "x_a": [0.5 * r, 0.0, length],
        "x_b": [0.0, 0.5 * r, length],
    }


def _quadrature_order(order):
    """A scalar order or three per-axis orders, each an integer in range."""
    per_axis = isinstance(order, (list, tuple))
    entries = list(order) if per_axis else [order]
    if (per_axis and len(entries) != 3) or not all(
            isinstance(o, (int, np.integer)) and not isinstance(o, bool) and MIN_ORDER <= o <= MAX_ORDER
            for o in entries):
        raise ModelError(f"quadrature_order must be an integer in [{MIN_ORDER}, {MAX_ORDER}] "
                         f"or a list of three, got {order!r}")
    return tuple(int(o) for o in entries) if per_axis else int(order)


def _build_body(doc) -> BodyHandle:
    kind = doc.get("kind")
    if kind not in BODY_KINDS:
        raise ModelError(f"unknown body kind {kind!r} (expected one of {BODY_KINDS})")
    rho = float(doc.get("rho", 0.0))
    if rho <= 0.0:
        raise ModelError("body density 'rho' must be positive")
    domain = _geometry(doc.get("geometry"), kind)
    order = _quadrature_order(doc.get("quadrature_order", DEFAULT_ORDER))
    C = doc.get("C")
    eta = doc.get("eta")
    C = float(C) if C is not None else None
    eta = float(eta) if eta is not None else None
    geom = doc.get("geometry")

    if kind == "rigid":
        model = RigidBody(domain, rho, quadrature_order=order)
    elif kind in ("pcc", "pcc_planar", "pac", "pcs", "pgc"):
        length = float(geom["length"])
        basis = {
            "pcc": lambda: pcc_basis(length, elongation=bool(doc.get("elongation", True))),
            "pcc_planar": lambda: pcc_basis(length, planar=True),
            "pac": lambda: pac_basis(length),
            "pcs": lambda: pcs_basis(length),
            "pgc": lambda: pgc_basis(length),
        }[kind]()
        model = CosseratRodBody(basis, length, domain, rho, C, eta, quadrature_order=order)
    elif kind == "pcc_variable_radius":
        if domain.kind != "cylinder":
            raise ModelError("pcc_variable_radius requires a cylinder geometry")
        model = VariableRadiusPccBody(float(geom["length"]), float(geom["radius"]),
                                      domain, rho, C, eta, quadrature_order=order)
    else:  # lvp
        prims_doc = doc.get("primitives")
        if not prims_doc:
            raise ModelError("lvp body requires a non-empty 'primitives' list")
        n_dof = doc.get("n_dof")
        if n_dof is None:
            n_dof = 1 + max(i for p in prims_doc for i in p["coeffs"])
        length = float(geom["length"]) if "length" in geom else domain.length_scale
        prims = []
        for p in prims_doc:
            pk = p.get("kind")
            if pk not in PRIMITIVE_KINDS:
                raise ModelError(f"unknown LVP primitive kind {pk!r}")
            prims.append(PRIMITIVE_KINDS[pk](length, p["coeffs"]))
        model = LvpBody(prims, int(n_dof), domain, rho, C, eta, quadrature_order=order)

    if doc.get("free_tip", False):
        return BodyHandle(model, free_tip=True)
    anchors = doc.get("anchors") or _default_anchors(domain)
    for key in ("x_j", "x_a", "x_b"):
        if key not in anchors:
            raise ModelError(f"anchors missing required field {key!r}")
    try:
        return BodyHandle(model, anchors["x_j"], anchors["x_a"], anchors["x_b"])
    except ValueError as exc:
        raise ModelError(f"invalid anchors: {exc} "
                         "(rigid-contact-area assumption requires orthogonal anchor offsets)") from exc


def _build_joint(doc) -> Joint:
    kind = doc.get("kind", "fixed")
    if kind in ("revolute", "prismatic"):
        if "axis" not in doc:
            raise ModelError(f"{kind} joint requires an 'axis'")
        return Joint(kind, axis=_vec3(doc["axis"], "joint.axis"))
    if kind == "rotated_base":
        return Joint(kind, rotation=_rotation(doc.get("rotation"), "joint.rotation"),
                     translation=_vec3(doc.get("translation", (0, 0, 0)), "joint.translation"))
    if kind == "fixed":
        return Joint("fixed")
    raise ModelError(f"unknown joint kind {kind!r}")


def _normalize(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


def parse_chain(doc: dict) -> ChainModel:
    """Build a ChainModel from a description document."""
    if not isinstance(doc, dict):
        raise ModelError("chain description must be a JSON object")
    version = doc.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ModelError(f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})")
    links_doc = doc.get("links")
    if not links_doc:
        raise ModelError("chain description needs a non-empty 'links' array")
    base_doc = doc.get("base") or {}
    base = Transform(_rotation(base_doc.get("rotation"), "base.rotation"),
                     _vec3(base_doc.get("translation", (0, 0, 0)), "base.translation"))
    gravity = _vec3(doc.get("gravity", (0.0, 0.0, -9.81)), "gravity")
    links, handles = [], {}  # one handle per distinct body document
    for idx, ld in enumerate(links_doc):
        try:
            key = json.dumps(ld["body"], sort_keys=True)
            handles[key] = handles.get(key) or _build_body(ld["body"])
            links.append(Link(_build_joint(ld.get("joint", {"kind": "fixed"})), handles[key]))
        except (KeyError, ModelError, ValueError) as exc:
            raise ModelError(f"link {idx}: {exc}") from exc
    chain = ChainModel(links, gravity=gravity, base=base)
    chain.description = _normalize(doc)
    return chain


def chain_to_dict(chain: ChainModel) -> dict:
    """Normalized description of a parsed chain (lossless round trip)."""
    doc = getattr(chain, "description", None)
    if doc is None:
        raise ModelError("chain was not built from a description document")
    return _normalize(doc)


def load_document(path) -> dict:
    """The description document in a JSON file, unparsed."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: invalid JSON ({exc})") from exc


def load_chain(path) -> ChainModel:
    return parse_chain(load_document(path))


def save_chain(doc_or_chain, path) -> None:
    doc = chain_to_dict(doc_or_chain) if isinstance(doc_or_chain, ChainModel) else doc_or_chain
    Path(path).write_text(json.dumps(doc, indent=2) + "\n")


def validate_document(doc: dict) -> list[str]:
    """Parse and sanity-check a description; returns human-readable findings.

    An empty list means the document is valid.  Checks cover the schema, the
    anchor-orthogonality requirement, positive densities, and quadrature
    volume sanity against the analytic domain volume.
    """
    findings = []
    try:
        chain = parse_chain(doc)
    except ModelError as exc:
        return [str(exc)]
    for i, lk in enumerate(chain.links):
        model = lk.body.model
        dom = model.domain
        if dom.kind in ("box", "cylinder", "truncated_cone"):
            vol = dom.volume(model.quadrature_order)
            ref = dom.analytic_volume()
            if abs(vol - ref) > 5e-3 * ref:
                findings.append(
                    f"link {i}: quadrature volume {vol:.6e} deviates from analytic {ref:.6e} "
                    "by more than 0.5% (order too low)"
                )
    return findings


def summarize(chain: ChainModel) -> str:
    parts = [f"n = {chain.n}, {len(chain)} bodies"]
    for i, lk in enumerate(chain.links):
        parts.append(
            f"  link {i}: joint {lk.joint.kind} ({lk.joint.n_dof} dof), "
            f"body {type(lk.body.model).__name__} ({lk.body.n_dof} dof)"
        )
    return "\n".join(parts)
