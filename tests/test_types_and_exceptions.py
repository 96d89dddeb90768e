"""Tests for the shared value objects and the exception hierarchy."""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro import exceptions
from repro.types import PhaseTiming, fold_instances, node_pair


class TestNodePair:
    def test_canonical_and_unordered(self):
        assert node_pair(3, 5) == node_pair(5, 3)
        assert node_pair(3, 5) == frozenset({3, 5})

    def test_rejects_identical_nodes(self):
        with pytest.raises(ValueError):
            node_pair(4, 4)


class TestPhaseTiming:
    def test_fields(self):
        timing = PhaseTiming(name="phase1", time_units=Fraction(3, 2), bits_sent=12)
        assert timing.name == "phase1"
        assert timing.time_units == Fraction(3, 2)
        assert timing.bits_sent == 12

    def test_frozen(self):
        timing = PhaseTiming(name="p", time_units=Fraction(1))
        with pytest.raises(AttributeError):
            timing.name = "other"  # type: ignore[misc]


def _accounting(elapsed, bits_sent=0, link_bits=None):
    return {"elapsed": Fraction(elapsed), "bits_sent": bits_sent, "link_bits": link_bits or {}}


class TestFoldInstances:
    def test_agreement_when_unanimous(self):
        record = fold_instances("p", [b"x"], False, [({2: b"x", 3: b"x"}, _accounting(5))])
        assert record.agreement_ok and record.validity_ok is True

    def test_disagreement_fails_agreement(self):
        record = fold_instances("p", [b"x"], False, [({2: b"x", 3: b"y"}, _accounting(5))])
        assert not record.agreement_ok and record.validity_ok is False

    def test_no_fault_free_output_fails_agreement(self):
        record = fold_instances("p", [b"x"], True, [({}, _accounting(0))])
        assert not record.agreement_ok and record.validity_ok is None

    def test_metadata_defaults_to_empty_dict(self):
        record = fold_instances("p", [b"a"], False, [({1: b"a"}, _accounting(1))])
        assert record.metadata == {}

    def test_sums_instances_unless_elapsed_is_given(self):
        instances = [
            ({1: b"a"}, _accounting(1, 8, {(1, 2): 8})),
            ({1: b"b"}, _accounting(Fraction(1, 2), 4, {(1, 2): 2, (2, 1): 2})),
        ]
        record = fold_instances("p", [b"a", b"b"], False, instances, dispute_control_executions=1)
        assert (record.instances, record.payload_bits, record.elapsed, record.bits_sent) == (
            2, 16, Fraction(3, 2), 12
        )
        assert record.link_bits == {(1, 2): 10, (2, 1): 2}
        assert record.dispute_control_executions == 1
        assert record.throughput == Fraction(32, 3)
        makespan = fold_instances("p", [b"a", b"b"], False, instances, elapsed=Fraction(1))
        assert makespan.throughput == 16 and makespan.bits_sent == 12


class TestExceptionHierarchy:
    @pytest.mark.parametrize(
        "exception_type",
        [
            exceptions.FieldError,
            exceptions.MatrixError,
            exceptions.GraphError,
            exceptions.InfeasibleError,
            exceptions.CapacityViolationError,
            exceptions.ProtocolError,
            exceptions.AgreementViolationError,
            exceptions.ConfigurationError,
        ],
    )
    def test_all_derive_from_repro_error(self, exception_type):
        assert issubclass(exception_type, exceptions.ReproError)
        with pytest.raises(exceptions.ReproError):
            raise exception_type("boom")

    def test_repro_error_is_exception(self):
        assert issubclass(exceptions.ReproError, Exception)
