import ast
from pathlib import Path

import numpy as np
import pytest

from eprseq import GF2, GF4, FieldError, FieldSpec, field_make


def brute_mul_table(spec):
    """Multiplication by repeated addition of shifted summands, no reduction tricks."""
    def poly_mul(a, b):
        prod = 0
        for i in range(spec.degree):
            if (b >> i) & 1:
                prod ^= a << i
        # long division by the modulus
        for top in range(2 * spec.degree - 2, spec.degree - 1, -1):
            if (prod >> top) & 1:
                prod ^= spec.modulus << (top - spec.degree)
        return prod

    return {(a, b): poly_mul(a, b) for a in range(spec.order) for b in range(spec.order)}


def test_mul_is_the_brute_product_on_ints_and_uint8_arrays():
    """mul takes ints and uint8 arrays (broadcasting) alike; at degree 8 the
    uint8 shift drops x^8, which the modulus term must add back."""
    specs = [field_make(d) for d in range(1, 9)] + [field_make(3, 0b1101), field_make(8, 0x11D)]
    for spec in specs:
        table = brute_mul_table(spec)
        q = np.arange(spec.order, dtype=np.uint8)
        got = spec.mul(q[:, None], q[None, :])
        want = [[table[a, b] for b in range(spec.order)] for a in range(spec.order)]
        assert got.dtype == np.uint8 and got.tolist() == want, spec
        assert [[spec.mul(a, b) for b in range(spec.order)] for a in range(spec.order)] == want, spec
    rng = np.random.default_rng(8)
    for spec in (GF4, field_make(3), field_make(8)):
        table = brute_mul_table(spec)
        col = rng.integers(0, spec.order, 50, np.uint8)  # a (B,) column times a (2k, B) block, as in inverse
        block = rng.integers(0, spec.order, (2 * spec.degree, 50), np.uint8)
        want = [[table[int(c), int(x)] for c, x in zip(col, row)] for row in block]
        assert spec.mul(col, block).tolist() == want, spec


def test_only_gfield_reads_the_modulus():
    """FieldSpec.mul is the one field product: no other module reduces by the modulus."""
    readers = {
        path.name
        for path in (Path(__file__).resolve().parents[1] / "src" / "eprseq").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "modulus"
    }
    assert readers == {"gfield.py"}, readers


def test_gf2_is_integer_arithmetic_mod_2():
    for a in (0, 1):
        for b in (0, 1):
            assert GF2.add(a, b) == (a + b) % 2
            assert GF2.mul(a, b) == (a * b) % 2
    assert GF2.add(1, 1) == 0


def test_gf4_generator_square():
    z, w = 0b10, 0b11
    assert GF4.mul(z, z) == w
    assert GF4.add(z, 1) == w
    assert GF4.add(w, z) == 1


def test_gf4_square_of_w():
    # (z+1)^2 expands to z^2 + 1 = z; cross-check with the brute-force table.
    table = brute_mul_table(GF4)
    assert table[(0b11, 0b11)] == 0b10
    assert GF4.mul(0b11, 0b11) == 0b10


def test_inverses():
    assert GF2.inv(1) == 1
    assert GF4.inv(1) == 1
    # exhaustive table: z * (z+1) = z^2 + z = 1
    table = brute_mul_table(GF4)
    inv_z = next(b for b in range(1, 4) if table[(0b10, b)] == 1)
    assert inv_z == 0b11
    assert GF4.inv(0b10) == 0b11
    with pytest.raises(ZeroDivisionError):
        GF4.inv(0)


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        field_make(2, 0b100)  # z*z factors as z times z
    with pytest.raises(FieldError):
        field_make(0)
    with pytest.raises(FieldError):
        field_make(9)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: field_make(2, "x"), "modulus must be an int or 'default', got 'x'"),
        (lambda: field_make(2, 0b11), "modulus 0b11 is not monic of degree 2"),
        (lambda: FieldSpec(2, 0b101).inv(3), "element 3 has no inverse; modulus 0b101 is not irreducible"),
    ],
)
def test_bad_modulus_messages(make, message):
    with pytest.raises(FieldError) as info:
        make()
    assert str(info.value) == message


def test_default_fields():
    assert field_make(1).order == 2
    assert field_make(1).modulus == 0b10
    assert field_make(2) is GF4
    assert GF4.modulus == 0b111
    assert field_make(3).modulus == 0b1011


@pytest.mark.parametrize("degree", [1, 2, 3, 4])
def test_field_axioms_exhaustive(degree):
    spec = field_make(degree)
    elems = range(spec.order)
    for a in elems:
        assert spec.add(a, a) == 0
        assert spec.mul(a, 1) == a
        if a:
            assert spec.mul(a, spec.inv(a)) == 1
    for a in elems:
        for b in elems:
            assert spec.add(a, b) == spec.add(b, a)
            assert spec.mul(a, b) == spec.mul(b, a)
            for c in elems:
                assert spec.mul(spec.mul(a, b), c) == spec.mul(a, spec.mul(b, c))
                assert spec.mul(a, spec.add(b, c)) == spec.add(
                    spec.mul(a, b), spec.mul(a, c)
                )


def test_symbols():
    assert [GF4.to_symbol(v) for v in range(4)] == ["0", "1", "z", "w"]
    assert GF4.from_symbol("w") == 0b11
    assert GF2.from_symbol("1") == 1
    with pytest.raises(FieldError):
        GF4.from_symbol("Z")
    with pytest.raises(FieldError):
        GF2.from_symbol("z")
    with pytest.raises(FieldError):
        field_make(3).to_symbol(5)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda f: f.to_symbol(1), "gf8 has no text symbols"),
        (lambda f: f.to_symbol(9), "9 is not an element of gf8"),  # the element is checked first
        (lambda f: f.from_symbol("0"), "gf8 has no text symbols"),  # not "not an element symbol"
    ],
)
def test_gf8_symbol_messages(call, message):
    with pytest.raises(FieldError) as info:
        call(field_make(3))
    assert str(info.value) == message


def test_element_validation():
    with pytest.raises(FieldError):
        GF2.validate(2)
    with pytest.raises(FieldError):
        GF4.validate(-1)
