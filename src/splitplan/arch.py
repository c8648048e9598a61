"""Structural model of bottleneck-module CNNs.

Evaluates the closed-form per-layer output sizes and workloads, and folds a
whole architecture into a per-cut profile: cumulative local workload,
transmit payload, and pooling-index payload at every admissible split point.
Cut 0 means "transmit the raw input"; cut ``L`` means "run everything
locally and transmit the final output".

Units: spatial sizes in elements, payloads in bits, workloads in FLOPs.
All counters are Python ints, so multi-GFLOP totals never wrap.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import MISSING, dataclass, fields
from enum import Enum
from functools import cache
from importlib import resources
from pathlib import Path

from .errors import (
    NonPositiveOutput,
    PairingError,
    ParseError,
    ShapeMismatch,
    ValidationError,
)


class LayerKind(str, Enum):
    CONV = "conv"
    TRANSPOSE_CONV = "transpose_conv"
    MAX_POOL = "max_pool"
    MAX_UNPOOL = "max_unpool"


@dataclass(frozen=True)
class TensorShape:
    """Channels x height x width, all at least one element."""

    channels: int
    height: int
    width: int

    def __post_init__(self):
        for name in ("channels", "height", "width"):
            if getattr(self, name) < 1:
                raise ValidationError(f"tensor {name} must be >= 1")

    @property
    def elements(self) -> int:
        return self.channels * self.height * self.width


@dataclass(frozen=True)
class LayerSpec:
    """One convolutional / pooling layer with per-axis geometry.

    ``pwo``/``pho`` (output padding) apply to transpose convolutions only.
    Pooling layers keep their channel count.
    """

    kind: LayerKind
    c_in: int
    c_out: int
    kw: int
    kh: int
    pw: int = 0
    ph: int = 0
    sw: int = 1
    sh: int = 1
    dw: int = 1
    dh: int = 1
    pwo: int = 0
    pho: int = 0

    def __post_init__(self):
        if self.c_in < 1 or self.c_out < 1:
            raise ValidationError("channel counts must be >= 1")
        if min(self.kw, self.kh) < 1 or min(self.sw, self.sh) < 1 or min(self.dw, self.dh) < 1:
            raise ValidationError("kernel, stride and dilation must be >= 1")
        if min(self.pw, self.ph, self.pwo, self.pho) < 0:
            raise ValidationError("padding must be >= 0")
        if (self.pwo or self.pho) and self.kind is not LayerKind.TRANSPOSE_CONV:
            raise ValidationError("output padding is only valid on transpose convolutions")
        if self.kind in (LayerKind.MAX_POOL, LayerKind.MAX_UNPOOL) and self.c_in != self.c_out:
            raise ValidationError("pooling layers preserve the channel count")


def output_dim(x_in: int, layer: LayerSpec, axis: str) -> int:
    """Output size of ``layer`` along ``axis`` ("w" or "h") for input size ``x_in``.

    Convolution and max-pooling: floor((x + 2p - d(k-1) - 1)/s + 1).
    Transpose convolution: (x - 1)s - 2p + d(k-1) + p_out + 1.
    Max-unpooling: (x - 1)s - 2p + k.
    """
    if axis == "w":
        k, p, s, d, po = layer.kw, layer.pw, layer.sw, layer.dw, layer.pwo
    else:
        k, p, s, d, po = layer.kh, layer.ph, layer.sh, layer.dh, layer.pho
    if layer.kind in (LayerKind.CONV, LayerKind.MAX_POOL):
        out = (x_in + 2 * p - d * (k - 1) - 1) // s + 1
    elif layer.kind is LayerKind.TRANSPOSE_CONV:
        out = (x_in - 1) * s - 2 * p + d * (k - 1) + po + 1
    else:
        out = (x_in - 1) * s - 2 * p + k
    if out < 1:
        raise NonPositiveOutput(f"{layer.kind.value} {axis}-size {x_in} with "
                                f"k={k} p={p} s={s} d={d} po={po} yields {out}")
    return out


def layer_output_shape(layer: LayerSpec, in_shape: TensorShape) -> TensorShape:
    if layer.c_in != in_shape.channels:
        raise ShapeMismatch(
            f"{layer.kind.value} expects {layer.c_in} channels, got {in_shape.channels}")
    w = output_dim(in_shape.width, layer, "w")
    h = output_dim(in_shape.height, layer, "h")
    return TensorShape(layer.c_out, h, w)


def layer_flops(layer: LayerSpec, in_shape: TensorShape) -> int:
    """Workload of one layer applied to ``in_shape``.

    Convolutions (plain and transpose) cost 2*C_in*C_out*K_w*K_h per output
    pixel; max-pooling costs K_w*K_h - 1 comparisons per output element;
    max-unpooling is pure data movement and counts as zero.
    """
    out = layer_output_shape(layer, in_shape)
    area = out.width * out.height
    if layer.kind in (LayerKind.CONV, LayerKind.TRANSPOSE_CONV):
        return 2 * layer.c_in * layer.c_out * layer.kw * layer.kh * area
    if layer.kind is LayerKind.MAX_POOL:
        return (layer.kw * layer.kh - 1) * layer.c_out * area
    return 0


_SAMPLINGS = ("none", "down", "up")


@dataclass(frozen=True)
class BottleneckModule:
    """Two-branch block; branch outputs are summed at the exit.

    An empty ``skip_branch`` means the module has no skip path, so only the
    main branch constrains the output shape. ``pool_bits_per_element`` is the
    argmax bookkeeping cost per pooled output element; it is consumed by the
    paired unpooling module later in the network.
    """

    id: int
    main_branch: tuple[LayerSpec, ...]
    skip_branch: tuple[LayerSpec, ...] = ()
    sampling: str = "none"
    pool_bits_per_element: int = 0

    def __post_init__(self):
        object.__setattr__(self, "main_branch", tuple(self.main_branch))
        object.__setattr__(self, "skip_branch", tuple(self.skip_branch))
        if not self.main_branch:
            raise ValidationError(f"module {self.id}: main branch needs at least one layer")
        if self.sampling not in _SAMPLINGS:
            raise ValidationError(
                f"module {self.id}: sampling must be one of {_SAMPLINGS}, got {self.sampling!r}")
        if self.pool_bits_per_element < 0:
            raise ValidationError(f"module {self.id}: pool_bits_per_element must be >= 0")

    @property
    def layers(self) -> tuple[LayerSpec, ...]:
        return self.main_branch + self.skip_branch


@dataclass(frozen=True)
class Architecture:
    modules: tuple[BottleneckModule, ...]
    input_shape: TensorShape
    bits_per_element: int = 32

    def __post_init__(self):
        object.__setattr__(self, "modules", tuple(self.modules))
        if self.bits_per_element < 1:
            raise ValidationError("bits_per_element must be >= 1")
        downs = sum(1 for m in self.modules if m.sampling == "down")
        ups = sum(1 for m in self.modules if m.sampling == "up")
        if downs != ups:
            raise ValidationError(
                f"{downs} downsampling vs {ups} upsampling modules; counts must match")

    @property
    def num_modules(self) -> int:
        return len(self.modules)


@dataclass(frozen=True)
class CutProfile:
    """Per-cut totals for one architecture.

    ``cum_workload[l]`` is the FLOPs of modules 1..l (local side),
    ``transmit_bits[l]`` the activation payload at cut ``l`` and
    ``index_bits[l]`` the pooling-index payload still owed to later
    unpooling stages. Index 0 is the raw-input cut. Every cut uploads (cut L
    sends the final output), so ``transmit_bits`` entries are at least 1.
    """

    cum_workload: tuple[int, ...]
    transmit_bits: tuple[int, ...]
    index_bits: tuple[int, ...]

    def __post_init__(self):
        n = len(self.cum_workload)
        if n < 1 or len(self.transmit_bits) != n or len(self.index_bits) != n:
            raise ValidationError("profile vectors must share one length >= 1")
        if self.cum_workload[0] != 0:
            raise ValidationError("cumulative workload must start at zero")
        if any(b < a for a, b in zip(self.cum_workload, self.cum_workload[1:])):
            raise ValidationError("cumulative workload must be non-decreasing")
        if min(self.transmit_bits) < 1:
            raise ValidationError("every cut must transmit at least one bit")
        if min(self.index_bits) < 0:
            raise ValidationError("index payloads must be non-negative")
        if max(self.total_workload, *map(self.payload_bits, range(n))) > sys.float_info.max:
            raise ValidationError("workloads and payloads must fit a float")

    @property
    def num_cuts(self) -> int:
        return len(self.cum_workload) - 1

    @property
    def total_workload(self) -> int:
        return self.cum_workload[-1]

    def payload_bits(self, cut: int) -> int:
        """Activation plus index bits transmitted when splitting at ``cut``;
        a cut outside 0..``num_cuts`` raises :class:`ValidationError`."""
        _check_cut(self, cut)
        return self.transmit_bits[cut] + self.index_bits[cut]


def _check_cut(profile: CutProfile, cut: int) -> None:
    if not 0 <= cut <= profile.num_cuts:
        raise ValidationError(f"cut {cut} is outside 0..{profile.num_cuts}")


def _run_branch(layers, shape, module_id):
    """Propagate a branch; returns (out_shape, flops, pooled_elements)."""
    flops = 0
    pooled = 0
    out = shape
    try:
        for layer in layers:
            nxt = layer_output_shape(layer, out)
            flops += layer_flops(layer, out)
            if layer.kind is LayerKind.MAX_POOL:
                pooled += nxt.elements
            out = nxt
    except (NonPositiveOutput, ShapeMismatch) as exc:
        raise type(exc)(f"module {module_id}: {exc}") from None
    return out, flops, pooled


def propagate(arch: Architecture) -> CutProfile:
    """Run shape propagation over the whole architecture and build its profile.

    Pool/unpool pairing is LIFO: an upsampling module containing max-unpool
    pops the most recent unresolved pooling downsample. The index payload at
    cut ``l`` sums contributions of pools executed locally (module <= l)
    whose unpool runs on the server (module > l).
    """
    shape = arch.input_shape
    bits = arch.bits_per_element
    cum = [0]
    data = [shape.elements * bits]
    open_pools: list[tuple[int, int]] = []  # (module position, index bits owed)
    pairs: list[tuple[int, int, int]] = []  # (down position, up position, index bits)

    for pos, mod in enumerate(arch.modules, start=1):
        out_main, fl_main, pooled_main = _run_branch(mod.main_branch, shape, mod.id)
        pooled = pooled_main
        flops = fl_main
        if mod.skip_branch:
            out_skip, fl_skip, pooled_skip = _run_branch(mod.skip_branch, shape, mod.id)
            if out_skip != out_main:
                raise ShapeMismatch(
                    f"module {mod.id}: main branch yields "
                    f"{(out_main.channels, out_main.height, out_main.width)} but skip branch "
                    f"yields {(out_skip.channels, out_skip.height, out_skip.width)}")
            flops += fl_skip
            pooled += pooled_skip

        if mod.sampling == "down":
            if not (out_main.height < shape.height and out_main.width < shape.width):
                raise ValidationError(f"module {mod.id}: downsampling must shrink both spatial dims")
        elif mod.sampling == "up":
            if not (out_main.height > shape.height and out_main.width > shape.width):
                raise ValidationError(f"module {mod.id}: upsampling must grow both spatial dims")
        else:
            if (out_main.height, out_main.width) != (shape.height, shape.width):
                raise ValidationError(f"module {mod.id}: non-sampling module changed spatial dims")

        has_unpool = any(l.kind is LayerKind.MAX_UNPOOL for l in mod.layers)
        if has_unpool:
            if mod.sampling != "up":
                raise ValidationError(f"module {mod.id}: max_unpool outside an upsampling module")
            if not open_pools:
                raise PairingError(f"module {mod.id}: no unresolved pooling stage to pair with")
            down_pos, owed = open_pools.pop()
            pairs.append((down_pos, pos, owed))
        if mod.sampling == "down" and pooled > 0:
            open_pools.append((pos, pooled * mod.pool_bits_per_element))

        shape = out_main
        cum.append(cum[-1] + flops)
        data.append(shape.elements * bits)

    if (shape.height, shape.width) != (arch.input_shape.height, arch.input_shape.width):
        raise ValidationError(
            f"final spatial dims {(shape.height, shape.width)} differ from input "
            f"{(arch.input_shape.height, arch.input_shape.width)}")

    index = [0] * (arch.num_modules + 1)
    for down_pos, up_pos, owed in pairs:
        for cut in range(down_pos, up_pos):
            index[cut] += owed
    return CutProfile(tuple(cum), tuple(data), tuple(index))


# ---------------------------------------------------------------------------
# config I/O: the JSON reading rules shared with the experiment config

def _parse_json(text: str):
    """The value of a JSON config text; malformed text, or an integer literal
    past Python's digit limit, raises ``ParseError``."""
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or the int conversion's ValueError
        raise ParseError(f"config is not valid JSON: {exc}") from None


def read_config(path):
    """The JSON value of the config file at ``path``. The file is decoded as
    UTF-8, the JSON encoding, whatever the locale; bytes that are not UTF-8
    raise ``ParseError``, as malformed JSON does."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"config {path} is not UTF-8 text: {exc}") from None
    return _parse_json(text)


def _known_keys(obj, keys, where: str) -> dict:
    """``obj`` itself, once it is a JSON object holding only ``keys``."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{where} must be a JSON object, not {type(obj).__name__}")
    unknown = set(obj) - set(keys)
    if unknown:
        raise ValidationError(f"{where}: unknown keys {sorted(unknown)}")
    return obj


def _number(value, name: str, whole: bool = False):
    """A config number as a float, or as an int when ``whole``; a boolean, a
    non-number, a non-finite value or (when ``whole``) a fraction raises
    ``ValidationError`` naming ``name``."""
    kind = "integers" if whole else "finite numbers"
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValidationError(f"{name} takes {kind}, got {value!r}")
    if whole and isinstance(value, numbers.Integral):
        return int(value)
    number = float(value) if abs(value) <= sys.float_info.max else math.inf
    if not math.isfinite(number) or whole and not number.is_integer():
        raise ValidationError(f"{name} takes {kind}, got {value!r}")
    return int(number) if whole else number


def _entry(obj: dict, key: str, where: str, default=None):
    """``obj[key]``, or ``default`` when the key is absent; an absent key
    without a default raises ``ValidationError``."""
    if key in obj:
        return obj[key]
    if default is None:
        raise ValidationError(f"{where}: missing required key {key!r}")
    return default


def _whole(obj: dict, key: str, where: str, default=None) -> int:
    return _number(_entry(obj, key, where, default), f"{where}: {key}", whole=True)


def _list(obj: dict, key: str, where: str, default=None) -> list:
    value = _entry(obj, key, where, default)
    if not isinstance(value, list):
        raise ValidationError(f"{where}: {key} must be a list, not {type(value).__name__}")
    return value


#: Integer layer fields and their defaults (``None``: required).
_LAYER_NUMBERS = {f.name: None if f.default is MISSING else f.default
                  for f in fields(LayerSpec) if f.name != "kind"}
_INPUT_KEYS = ("channels", "height", "width")
_MODULE_KEYS = ("id", "sampling", "pool_bits_per_element", "main_branch", "skip_branch")
_ARCH_KEYS = ("bits_per_element", "input", "modules")


def _layer_from_dict(obj, where: str) -> LayerSpec:
    obj = _known_keys(obj, ("kind", *_LAYER_NUMBERS), where)
    kind = _entry(obj, "kind", where)
    try:
        kind = LayerKind(kind)
    except ValueError:
        raise ValidationError(f"{where}: unknown layer kind {kind!r}") from None
    values = {key: _whole(obj, key, where, default) for key, default in _LAYER_NUMBERS.items()}
    try:
        return LayerSpec(kind, **values)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def _module_from_dict(obj, pos: int) -> BottleneckModule:
    obj = _known_keys(obj, _MODULE_KEYS, f"module {pos}")
    mid = _whole(obj, "id", f"module {pos}", pos)
    where = f"module {mid}"

    def branch(key, default):
        return tuple(_layer_from_dict(layer, f"{where} {key}[{i}]")
                     for i, layer in enumerate(_list(obj, key, where, default)))

    return BottleneckModule(
        id=mid,
        main_branch=branch("main_branch", None),
        skip_branch=branch("skip_branch", []),
        sampling=_entry(obj, "sampling", where, "none"),
        pool_bits_per_element=_whole(obj, "pool_bits_per_element", where, 0),
    )


def architecture_from_dict(cfg) -> Architecture:
    cfg = _known_keys(cfg, _ARCH_KEYS, "architecture")
    inp = _known_keys(_entry(cfg, "input", "architecture"), _INPUT_KEYS, "input")
    raw_modules = _list(cfg, "modules", "architecture")
    if not raw_modules:
        raise ValidationError("module list is empty")
    arch = Architecture(
        modules=tuple(_module_from_dict(m, pos) for pos, m in enumerate(raw_modules, start=1)),
        input_shape=TensorShape(*(_whole(inp, key, "input") for key in _INPUT_KEYS)),
        bits_per_element=_whole(cfg, "bits_per_element", "architecture", 32),
    )
    try:
        propagate(arch)  # full structural validation
    except (ShapeMismatch, PairingError, NonPositiveOutput) as exc:
        raise ValidationError(str(exc)) from None
    return arch


def load_architecture(config_text: str) -> Architecture:
    """Parse and validate a JSON architecture config."""
    return architecture_from_dict(_parse_json(config_text))


_BUNDLED = {"reference": "enet_reference.json", "toy": "toy_arch.json"}


def packaged_config_text(name: str) -> str:
    """Text of a bundled architecture config ('reference' or 'toy')."""
    if name not in _BUNDLED:
        raise ParseError(f"no bundled config named {name!r}")
    return resources.files("splitplan.data").joinpath(_BUNDLED[name]).read_text()


@cache
def _bundled_architecture(name: str) -> Architecture:
    return load_architecture(packaged_config_text(name))


def resolve_architecture(spec) -> Architecture:
    """The architecture an ``--arch`` / ``"arch"`` value names: a bundled
    name ('reference' or 'toy') or the path of a JSON config file."""
    if not isinstance(spec, str):
        raise ValidationError(
            f"arch must be a bundled name or a file path, got {spec!r}")
    if spec in _BUNDLED:
        return _bundled_architecture(spec)
    return architecture_from_dict(read_config(spec))


def reference_architecture() -> Architecture:
    """The bundled 30-module segmentation network (ENet-style layout)."""
    return _bundled_architecture("reference")


def toy_architecture() -> Architecture:
    """The bundled 4-module toy network used for brute-force validation."""
    return _bundled_architecture("toy")
