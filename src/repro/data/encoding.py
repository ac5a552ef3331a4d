"""Dictionary encoding of categorical attribute values.

Rules and tuples are manipulated as tuples of small integers rather than
raw strings: comparisons during LCA computation and rule matching are the
hot path of SIRUM (thesis §3.3), and integer codes make them cheap and
make numpy vectorization possible.  Code 0..n-1 maps to the attribute's
active domain in first-seen order; wildcards are represented *outside*
the encoder by :data:`repro.core.rule.WILDCARD`.
"""

from repro.common.errors import DataError


class DictionaryEncoder:
    """Bidirectional value <-> code mapping for one attribute."""

    def __init__(self):
        self._code_of = {}
        self._value_of = []

    @classmethod
    def from_values(cls, values):
        """The encoder whose code ``i`` decodes to ``values[i]``.

        Built by position, not by re-encoding: two entries that are
        equal as keys (a stored dictionary's NaN entries) keep their
        own codes, and encoding finds the first of them.
        """
        encoder = cls()
        encoder._value_of = list(values)
        for code, value in enumerate(encoder._value_of):
            encoder._code_of.setdefault(value, code)
        return encoder

    def __len__(self):
        return len(self._value_of)

    def encode(self, value):
        """Return the code for ``value``, assigning a new one if unseen."""
        code = self._code_of.get(value)
        if code is None:
            code = len(self._value_of)
            self._code_of[value] = code
            self._value_of.append(value)
        return code

    def encode_existing(self, value):
        """Return the code for ``value``; raise DataError if unseen."""
        try:
            return self._code_of[value]
        except KeyError:
            raise DataError("value %r not present in encoder" % (value,)) from None

    def decode(self, code):
        """Return the original value for ``code``."""
        try:
            return self._value_of[code]
        except IndexError:
            raise DataError("code %r out of range" % (code,)) from None

    def values(self):
        """Active domain in code order."""
        return list(self._value_of)

    def __contains__(self, value):
        return value in self._code_of
