"""The four abelian color groups and their element arithmetic.

A colored graph carries one group element per edge, drawn from one of

    Z           the integers
    Z/k         integers mod k (k >= 2)
    Z^2         pairs of integers
    Z/p x Z/q   pairs mod distinct odd primes p, q

Elements are immutable and never combine across different group specs.
Coordinates of cyclic components are always stored reduced to 0 <= x < k,
so equality and hashing are structural.  Z and Z^2 keep exact Python
integers throughout; color magnitudes grow under reverse Henneberg sums
and must not overflow.
"""

from .errors import UsageError, UnsupportedGroupError

FREE1 = "Z"
CYCLIC = "Z/k"
FREE2 = "Z^2"
CYCLIC_PQ = "Z/pxZ/q"


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GroupSpec:
    """Descriptor of one of the four supported groups.

    Use the factories: ``GroupSpec.free()``, ``GroupSpec.cyclic(5)``,
    ``GroupSpec.free2()``, ``GroupSpec.cyclic_pq(3, 5)``.

    >>> str(GroupSpec.cyclic_pq(3, 5))
    'Z/3xZ/5'
    >>> GroupSpec.parse("Z^2").ncoords
    2
    """

    __slots__ = ("variant", "moduli")

    def __init__(self, variant, moduli=()):
        self.variant = variant
        self.moduli = tuple(moduli)
        if variant == CYCLIC:
            if len(self.moduli) != 1 or self.moduli[0] < 2:
                raise UsageError("Z/k needs a single modulus k >= 2")
        elif variant == CYCLIC_PQ:
            if len(self.moduli) != 2:
                raise UsageError("Z/pxZ/q needs two moduli")
            p, q = self.moduli
            # distinct odd primes is a standing assumption of the product
            # family; checked here so nothing downstream has to
            if p == q or p == 2 or q == 2 or not (_is_prime(p) and _is_prime(q)):
                raise UsageError("Z/pxZ/q needs distinct odd primes, got %d, %d" % (p, q))
        elif variant in (FREE1, FREE2):
            if self.moduli:
                raise UsageError("free groups take no moduli")
        else:
            raise UsageError("unknown group variant %r" % (variant,))

    @classmethod
    def free(cls):
        return cls(FREE1)

    @classmethod
    def cyclic(cls, k):
        return cls(CYCLIC, (k,))

    @classmethod
    def free2(cls):
        return cls(FREE2)

    @classmethod
    def cyclic_pq(cls, p, q):
        return cls(CYCLIC_PQ, (p, q))

    @property
    def ncoords(self):
        return 1 if self.variant in (FREE1, CYCLIC) else 2

    @property
    def finite(self):
        return self.variant in (CYCLIC, CYCLIC_PQ)

    @property
    def order(self):
        """Group order, or None for the infinite groups."""
        if self.variant == CYCLIC:
            return self.moduli[0]
        if self.variant == CYCLIC_PQ:
            return self.moduli[0] * self.moduli[1]
        return None

    def zero(self):
        return GroupElem(self, (0,) * self.ncoords)

    def elem(self, *coords):
        """Build an element, reducing cyclic coordinates canonically."""
        if len(coords) == 1 and isinstance(coords[0], (tuple, list)):
            coords = tuple(coords[0])
        if len(coords) != self.ncoords:
            raise UsageError("%s takes %d coordinate(s), got %r" % (self, self.ncoords, coords))
        return GroupElem(self, coords)

    def elements(self):
        """All elements, in canonical order.  Finite groups only."""
        if self.variant == CYCLIC:
            return [GroupElem(self, (x,)) for x in range(self.moduli[0])]
        if self.variant == CYCLIC_PQ:
            p, q = self.moduli
            return [GroupElem(self, (a, b)) for a in range(p) for b in range(q)]
        raise UnsupportedGroupError("cannot enumerate an infinite group")

    def __eq__(self, other):
        return (isinstance(other, GroupSpec)
                and self.variant == other.variant and self.moduli == other.moduli)

    def __hash__(self):
        return hash((self.variant, self.moduli))

    def __str__(self):
        if self.variant == FREE1:
            return "Z"
        if self.variant == CYCLIC:
            return "Z/%d" % self.moduli
        if self.variant == FREE2:
            return "Z^2"
        return "Z/%dxZ/%d" % self.moduli

    def __repr__(self):
        return "GroupSpec(%s)" % self

    @classmethod
    def parse(cls, text):
        """Parse the group syntax used in files and on the command line:
        ``Z``, ``Z/5``, ``Z^2``, ``Z/3xZ/5``."""
        t = text.strip()
        if t == "Z":
            return cls.free()
        if t == "Z^2":
            return cls.free2()
        if t.startswith("Z/"):
            body = t[2:]
            if "xZ/" in body:
                ptxt, qtxt = body.split("xZ/", 1)
                try:
                    return cls.cyclic_pq(int(ptxt), int(qtxt))
                except ValueError:
                    raise UsageError("bad group syntax %r" % text) from None
            try:
                return cls.cyclic(int(body))
            except ValueError:
                raise UsageError("bad group syntax %r" % text) from None
        raise UsageError("bad group syntax %r" % text)


class GroupElem:
    """An element of one of the color groups, in canonical form."""

    __slots__ = ("spec", "coords")

    def __init__(self, spec, coords):
        coords = tuple(int(c) for c in coords)
        if spec.variant == CYCLIC:
            coords = (coords[0] % spec.moduli[0],)
        elif spec.variant == CYCLIC_PQ:
            coords = (coords[0] % spec.moduli[0], coords[1] % spec.moduli[1])
        self.spec = spec
        self.coords = coords

    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def __add__(self, other):
        """Componentwise sum, reduced canonically.

        >>> s = GroupSpec.cyclic(5)
        >>> str(s.elem(3) + s.elem(4))
        '2'
        """
        if not isinstance(other, GroupElem):
            return NotImplemented
        if self.spec != other.spec:
            raise UsageError("cannot add elements of %s and %s" % (self.spec, other.spec))
        return GroupElem(self.spec, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return GroupElem(self.spec, tuple(-a for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return (isinstance(other, GroupElem)
                and self.spec == other.spec and self.coords == other.coords)

    def __lt__(self, other):
        # coordinate order; only meaningful inside one group, where it
        # makes normalized edge triples sortable
        if not isinstance(other, GroupElem):
            return NotImplemented
        return self.coords < other.coords

    def __hash__(self):
        return hash((self.spec, self.coords))

    def __str__(self):
        return ",".join(str(c) for c in self.coords)

    def __repr__(self):
        return "<%s in %s>" % (self, self.spec)


def parse_elem(spec, text):
    """Parse a color in the file syntax: ``c`` or ``c1,c2``."""
    parts = text.split(",")
    try:
        coords = tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError("bad color %r" % text) from None
    return spec.elem(*coords)


def rank_of_span(elems):
    """Number of independent elements in the subgroup the list generates:
    0, 1, or 2.

    Z and prime Z/k: 0 if every element is zero, else 1.  Z^2: rank of the
    generated integer lattice.  Z/p x Z/q: how many of the two prime sides
    some element projects onto nontrivially (this matches the index analysis,
    where the only possible indices are 1, p, q, and pq).

    An empty list has rank 0.  Composite Z/k is rejected rather than given
    a guessed semantics.
    """
    elems = list(elems)
    if not elems:
        return 0
    spec = elems[0].spec
    for e in elems:
        if e.spec != spec:
            raise UsageError("mixed group specs in rank_of_span")
    if spec.variant == CYCLIC and not _is_prime(spec.moduli[0]):
        raise UnsupportedGroupError("rank over composite Z/%d is not defined" % spec.moduli)
    if spec.variant in (FREE1, CYCLIC):
        return 0 if all(e.is_zero() for e in elems) else 1
    if spec.variant == CYCLIC_PQ:
        return int(any(e.coords[0] for e in elems)) + int(any(e.coords[1] for e in elems))
    # Z^2: lattice rank equals rank over Q; it is 2 exactly when some pair
    # of generators has a nonzero 2x2 determinant, so keep the first nonzero
    # vector as pivot and test cross products, all in exact integers.
    pivot = None
    for e in elems:
        x, y = e.coords
        if x == 0 and y == 0:
            continue
        if pivot is None:
            pivot = (x, y)
        elif pivot[0] * y - pivot[1] * x != 0:
            return 2
    return 0 if pivot is None else 1
