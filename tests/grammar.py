"""Expression sources drawn from docs/expression-grammar.md: atoms, the five
functions, integer powers, unary minus and the four operators.  ``k`` and
``a`` are the parameters the drawn expressions use; callers bind them."""

from hypothesis import strategies as st

NUMBERS = st.sampled_from(
    ["0", "1", "2", "3", "0.5", "2.5e-1", "1e-3", "1e300", "0.3i", "1e-2i", "400"])
ATOMS = st.one_of(NUMBERS, st.just("x"), st.sampled_from(["k", "a"]))
FUNCTIONS = st.sampled_from(["exp", "sin", "cos", "tanh", "ln"])
POWERS = st.sampled_from([-3, -2, -1, 0, 1, 2, 3, 7, 400])


def _extend(sub):
    return st.one_of(
        st.tuples(sub, st.sampled_from("+-*/"), sub).map(lambda t: f"{t[0]} {t[1]} {t[2]}"),
        sub.map(lambda s: f"-{s}"),
        st.tuples(FUNCTIONS, sub).map(lambda t: f"{t[0]}({t[1]})"),
        st.tuples(sub, POWERS).map(lambda t: f"({t[0]})^{t[1]}"),
        sub.map(lambda s: f"({s})"),
    )


GRAMMATICAL = st.recursive(ATOMS, _extend, max_leaves=6)
