"""Bivariate asynchronous sharing: dealing, verification, exchange, recovery."""

from dataclasses import replace

import pytest

from trustmesh import avss as avss_mod
from trustmesh.avss import (
    AvssDeal,
    BivariatePolynomial,
    NodeRecovery,
    PointExchange,
    avss_deal,
    avss_exchange_and_interpolate,
    avss_point_valid,
    avss_recover_secret,
    avss_verify_share,
    commitment_matrix,
    exchange_message_valid,
    exchange_messages,
    random_bivariate,
)
from trustmesh.polynomials import Polynomial
from trustmesh.rng import SeededRng

TOY_P, TOY_Q, TOY_G, TOY_H = 23, 11, 2, 3


def matrix(backend, rows):
    return BivariatePolynomial(tuple(tuple(backend.scalar(v) for v in row) for row in rows))


def eval_oracle(rows, x, y, q):
    """f(x, y) with plain ints: rows[j][l] multiplies x^l * y^j."""
    total = 0
    for j, row in enumerate(rows):
        for l, c in enumerate(row):
            total = (total + c * pow(x, l, q) * pow(y, j, q)) % q
    return total


class TestBivariate:
    def test_forced_matrix_row_polynomial(self, toy):
        # f(x,y) = 5 + 2x + 3y + 4xy; a_2(y) = f(2, y) = 9 + 11y = [9, 0] mod 11
        f = matrix(toy, [[5, 2], [3, 4]])
        a2 = f.row_polynomial(2)
        assert [c.value for c in a2.coefficients] == [9, 0]

    def test_evaluate_matches_oracle(self, backend):
        rng = SeededRng(f"bivar-{backend.name}")
        q = backend.order
        for _ in range(10):
            t = 1 + rng.randbelow(3)
            rows = [[rng.randbelow(q) for _ in range(t)] for _ in range(t)]
            f = matrix(backend, rows)
            for x in range(3):
                for y in range(3):
                    assert f.evaluate(x, y).value == eval_oracle(rows, x, y, q)

    def test_row_and_column_polynomials_match_oracle(self, toy):
        rng = SeededRng("rowcol")
        rows = [[rng.randbelow(11) for _ in range(3)] for _ in range(3)]
        f = matrix(toy, rows)
        for i in range(1, 5):
            row_poly = f.row_polynomial(i)
            col_poly = f.column_polynomial(i)
            for v in range(1, 5):
                assert row_poly.evaluate(v).value == eval_oracle(rows, i, v, 11)
                assert col_poly.evaluate(v).value == eval_oracle(rows, v, i, 11)

    def test_cross_consistency(self, backend):
        rng = SeededRng(f"cross-{backend.name}")
        f = random_bivariate(backend.random_scalar(rng), 3, rng)
        for i in range(1, 6):
            for j in range(1, 6):
                assert f.row_polynomial(i).evaluate(j) == f.column_polynomial(j).evaluate(i)

    def test_secret_is_planted(self, backend, rng):
        f = random_bivariate(backend.scalar(5), 3, rng)
        assert f.evaluate(0, 0).value == 5

    def test_non_square_rejected(self, toy):
        with pytest.raises(ValueError):
            BivariatePolynomial((tuple([toy.scalar(1), toy.scalar(2)]),))


class TestDeal:
    def test_degenerate_threshold_one(self, backend, rng):
        secret = backend.scalar(5)
        commitment, deals = avss_deal(secret, 1, 3, rng, backend)
        assert len(commitment.entries) == 1
        g, h = backend.generator(), backend.second_generator()
        assert all(len(d.a.coefficients) == 1 for d in deals)
        assert all(d.share() == secret for d in deals)
        # the single entry opens to secret*G + r*H for some committed r
        for d in deals:
            assert commitment.entries[0][0] == secret * g + d.a_prime.evaluate(0) * h

    def test_deal_cross_consistency(self, toy, rng):
        _, deals = avss_deal(toy.scalar(4), 2, 4, rng, toy)
        by_id = {d.recipient: d for d in deals}
        for i in by_id:
            for j in by_id:
                assert by_id[i].a.evaluate(j) == by_id[j].b.evaluate(i)

    def test_parameter_validation(self, toy, rng):
        with pytest.raises(ValueError):
            avss_deal(toy.scalar(1), 5, 4, rng, toy)
        with pytest.raises(ValueError):
            avss_deal(toy.scalar(1), 0, 4, rng, toy)
        with pytest.raises(ValueError):
            avss_deal(toy.scalar(1), 2, 11, rng, toy)


class TestVerifyShare:
    def test_honest_shares_accept_all_nodes(self, backend):
        rng = SeededRng(f"avss-honest-{backend.name}")
        commitment, deals = avss_deal(backend.scalar(5), 3, 5, rng, backend)
        for deal in deals:
            assert avss_verify_share(
                commitment, deal.recipient, deal.share(), deal.a_prime.evaluate(0)
            )

    def test_tampered_sigma_rejected(self, backend, rng):
        commitment, deals = avss_deal(backend.scalar(5), 3, 5, rng, backend)
        d = deals[0]
        assert not avss_verify_share(commitment, 1, d.share() + 1, d.a_prime.evaluate(0))

    def test_exhaustive_toy_coset_structure(self, toy, rng):
        # for t=2 the accepting (sigma, sigma') pairs form a coset of size q:
        # one valid blinding per claimed value; only the true pair lies on the
        # dealer's polynomials
        f = random_bivariate(toy.scalar(5), 2, rng)
        f_prime = random_bivariate(toy.random_scalar(rng), 2, rng)
        commitment = commitment_matrix(toy, f, f_prime)
        m = 2
        true_pair = (f.evaluate(m, 0).value, f_prime.evaluate(m, 0).value)
        accepted = [
            (s, sp)
            for s in range(TOY_Q)
            for sp in range(TOY_Q)
            if avss_verify_share(commitment, m, toy.scalar(s), toy.scalar(sp))
        ]
        assert len(accepted) == TOY_Q
        assert true_pair in accepted
        on_polynomials = [pair for pair in accepted if pair == true_pair]
        assert on_polynomials == [true_pair]

    def test_verification_matches_int_oracle_exhaustive(self, toy, rng):
        f = random_bivariate(toy.scalar(7), 2, rng)
        f_prime = random_bivariate(toy.random_scalar(rng), 2, rng)
        commitment = commitment_matrix(toy, f, f_prime)
        rows = [[c.value for c in row] for row in f.coeffs]
        prows = [[c.value for c in row] for row in f_prime.coeffs]
        for m in range(1, 6):
            # oracle: product over first-row entries with exponents m^l
            target = 1
            for l in range(2):
                entry = pow(TOY_G, rows[0][l], TOY_P) * pow(TOY_H, prows[0][l], TOY_P) % TOY_P
                target = target * pow(entry, pow(m, l, TOY_Q), TOY_P) % TOY_P
            for s in range(TOY_Q):
                for sp in range(TOY_Q):
                    expected = pow(TOY_G, s, TOY_P) * pow(TOY_H, sp, TOY_P) % TOY_P == target
                    got = avss_verify_share(commitment, m, toy.scalar(s), toy.scalar(sp))
                    assert got == expected


class TestExchange:
    def _dealt(self, backend, t, n, rng, deliver_to=None):
        commitment, deals = avss_deal(backend.scalar(5), t, n, rng, backend)
        held = {d.recipient: d for d in deals if deliver_to is None or d.recipient in deliver_to}
        return commitment, held, {d.recipient: d for d in deals}

    def test_honest_exchange_reproduces_dealt_polynomials(self, toy, rng):
        commitment, held, all_deals = self._dealt(toy, 2, 4, rng, deliver_to={1, 2, 3})
        results = avss_exchange_and_interpolate(commitment, held, 4)
        assert all(r.complete for r in results.values())
        recovered = results[4].deal
        assert recovered.a.coefficients == all_deals[4].a.coefficients
        assert recovered.a_prime.coefficients == all_deals[4].a_prime.coefficients
        assert recovered.b.coefficients == all_deals[4].b.coefficients
        assert recovered.b_prime.coefficients == all_deals[4].b_prime.coefficients

    def test_corrupt_sender_flagged_but_completion_proceeds(self, toy, rng, monkeypatch):
        commitment, held, all_deals = self._dealt(toy, 2, 4, rng, deliver_to={1, 2, 3})
        honest = avss_mod.exchange_messages

        def corrupting(deal, recipients):
            # node 2 sends every overlap point with a wrong row value
            return [
                replace(msg, row_value=msg.row_value + 1) if deal.recipient == 2 else msg
                for msg in honest(deal, recipients)
            ]

        monkeypatch.setattr(avss_mod, "exchange_messages", corrupting)
        results = avss_exchange_and_interpolate(commitment, held, 4)
        assert results[4].complete
        assert results[4].flagged == {2}
        assert results[4].deal.a.coefficients == all_deals[4].a.coefficients

    def test_dealer_crash_after_t_deliveries(self, toy, rng):
        commitment, held, _ = self._dealt(toy, 2, 5, rng, deliver_to={1, 2})
        results = avss_exchange_and_interpolate(commitment, held, 5)
        assert all(results[j].complete for j in range(1, 6))

    def test_dealer_crash_after_t_plus_one_deliveries(self, toy, rng):
        commitment, held, _ = self._dealt(toy, 2, 4, rng, deliver_to={1, 2, 3})
        results = avss_exchange_and_interpolate(commitment, held, 4)
        assert all(results[j].complete for j in range(1, 5))

    def test_too_few_points_stays_incomplete(self, toy, rng):
        commitment, held, _ = self._dealt(toy, 3, 5, rng, deliver_to={1, 2})
        results = avss_exchange_and_interpolate(commitment, held, 5)
        assert not results[4].complete
        with pytest.raises(ValueError):
            results[4].share()

    def test_point_validity_exhaustive_toy(self, toy, rng):
        f = random_bivariate(toy.scalar(5), 2, rng)
        f_prime = random_bivariate(toy.random_scalar(rng), 2, rng)
        commitment = commitment_matrix(toy, f, f_prime)
        for x in range(1, 4):
            for y in range(1, 4):
                tv = f.evaluate(x, y).value
                tb = f_prime.evaluate(x, y).value
                for forged in range(TOY_Q):
                    accepted = avss_point_valid(
                        commitment, x, y, toy.scalar(forged), toy.scalar(tb)
                    )
                    assert accepted == (forged == tv)

    def test_point_validity_matches_int_oracle_over_the_plane(self, toy):
        # every (x, y) in 1..4 and every claimed (value, blinding) pair: the
        # check accepts exactly when g^value * h^blinding equals the product
        # of entry_jl^(x^l * y^j) over the commitment matrix.  With h = g^8,
        # every entry has a nonzero discrete log, so the committed point moves
        # with both x and y
        f = matrix(toy, [[5, 3], [7, 2]])
        f_prime = matrix(toy, [[1, 4], [5, 9]])
        commitment = commitment_matrix(toy, f, f_prime)
        entries = [
            [pow(TOY_G, a.value, TOY_P) * pow(TOY_H, b.value, TOY_P) % TOY_P for a, b in zip(row, prow)]
            for row, prow in zip(f.coeffs, f_prime.coeffs)
        ]
        for x in range(1, 5):
            for y in range(1, 5):
                target = 1
                for j, row in enumerate(entries):
                    for l, entry in enumerate(row):
                        target = target * pow(entry, pow(x, l, TOY_Q) * pow(y, j, TOY_Q), TOY_P) % TOY_P
                for value in range(TOY_Q):
                    for blinding in range(TOY_Q):
                        expected = pow(TOY_G, value, TOY_P) * pow(TOY_H, blinding, TOY_P) % TOY_P == target
                        got = avss_point_valid(commitment, x, y, toy.scalar(value), toy.scalar(blinding))
                        assert got == expected

    def test_exchange_message_contents(self, toy, rng):
        commitment, deals = avss_deal(toy.scalar(5), 2, 3, rng, toy)
        d1 = deals[0]
        messages = exchange_messages(d1, [1, 2, 3])
        assert [m.recipient for m in messages] == [2, 3]
        for m in messages:
            assert exchange_message_valid(commitment, m)
            # row point is f(recipient, sender), col point f(sender, recipient)
            assert m.row_value == deals[m.recipient - 1].a.evaluate(m.sender)
            assert m.col_value == deals[m.recipient - 1].b.evaluate(m.sender)


class TestRecovery:
    def test_forced_example(self, toy):
        shares = [(1, toy.scalar(7)), (2, toy.scalar(9))]
        assert avss_recover_secret(shares).value == 5

    def test_single_share_threshold_one(self, backend, rng):
        _, deals = avss_deal(backend.scalar(9), 1, 2, rng, backend)
        assert avss_recover_secret([(1, deals[0].share())]).value == 9

    def test_end_to_end_planted_secret(self, backend):
        rng = SeededRng(f"avss-e2e-{backend.name}")
        commitment, deals = avss_deal(backend.scalar(5), 3, 5, rng, backend)
        shares = [(d.recipient, d.share()) for d in deals[:3]]
        assert avss_recover_secret(shares).value == 5

    def test_duplicate_ids_rejected(self, toy):
        with pytest.raises(ValueError):
            avss_recover_secret([(1, toy.scalar(1)), (1, toy.scalar(2))])


class TestNodeRecovery:
    """One node's intake, fed one message at a time (toy backend unless a test takes ``backend``)."""

    T, N = 3, 5

    @pytest.fixture
    def dealt(self, toy, rng):
        commitment, deals = avss_deal(toy.scalar(5), self.T, self.N, rng, toy)
        return commitment, {d.recipient: d for d in deals}

    @staticmethod
    def point(deals, sender, recipient):
        return exchange_messages(deals[sender], [recipient])[0]

    @staticmethod
    def forged(msg):
        return PointExchange(msg.sender, msg.recipient, msg.row_value + 1,
                             msg.row_blind, msg.col_value, msg.col_blind)

    def test_duplicate_sender_is_ignored(self, dealt):
        commitment, deals = dealt
        node = NodeRecovery(5, commitment)
        steps = [node.receive(self.point(deals, s, 5)) for s in (1, 1, 2, 2)]
        assert steps == [False] * 4 and not node.complete
        assert node.receive(self.point(deals, 3, 5))
        assert node.complete and list(node.points) == [1, 2, 3]

    def test_invalid_point_flags_sender_even_after_completion(self, dealt):
        commitment, deals = dealt
        node = NodeRecovery(5, commitment)
        assert not node.receive(self.forged(self.point(deals, 4, 5)))
        assert node.flagged == {4}
        for s in (1, 2, 3):
            node.receive(self.point(deals, s, 5))
        assert node.complete
        assert not node.receive(self.forged(self.point(deals, 2, 5)))
        assert node.flagged == {2, 4}
        assert node.share() == deals[5].share()

    def test_rejected_deal_still_completes_from_points(self, dealt):
        commitment, deals = dealt
        honest = deals[4]
        a = Polynomial((honest.a.coefficients[0] + 1,) + honest.a.coefficients[1:])
        bad = AvssDeal(4, commitment, a, honest.a_prime, honest.b, honest.b_prime)
        node = NodeRecovery(4, commitment)
        assert not node.accept_deal(bad)
        assert not node.complete
        assert [node.receive(self.point(deals, s, 4)) for s in (1, 2, 5)] == [False, False, True]
        assert node.share() == honest.share()
        assert node.accept_deal(honest)

    def test_point_for_another_node_is_dropped_without_a_flag(self, backend, rng):
        # two valid points meant for node 3 would rebuild node 3's deal at node 5
        commitment, deals = avss_deal(backend.scalar(5), 2, 5, rng, backend)
        deals = {d.recipient: d for d in deals}
        node = NodeRecovery(5, commitment)
        misrouted = [self.point(deals, s, 3) for s in (1, 2)]
        assert all(exchange_message_valid(commitment, m) for m in misrouted)
        assert [node.receive(m) for m in misrouted] == [False, False]
        assert not node.complete and not node.points and not node.flagged
        assert [node.receive(self.point(deals, s, 5)) for s in (1, 2)] == [False, True]
        assert node.share() == deals[5].share()

    def test_first_t_distinct_valid_senders_rebuild_the_deal(self, dealt):
        commitment, deals = dealt
        node = NodeRecovery(5, commitment)
        node.receive(self.forged(self.point(deals, 1, 5)))
        for s in (2, 2, 3, 4):
            node.receive(self.point(deals, s, 5))
        assert list(node.points) == [2, 3, 4]
        dealt_to_5 = deals[5]
        for name in ("a", "a_prime", "b", "b_prime"):
            assert getattr(node.deal, name).coefficients == getattr(dealt_to_5, name).coefficients
        assert node.deal == dealt_to_5


class TestDealAcceptance:
    """A node keeps a deal only when its row and column polynomials open C."""

    POLYS = ("a", "a_prime", "b", "b_prime")

    @pytest.mark.parametrize("name", POLYS)
    def test_tampered_polynomial_rejected_and_no_honest_node_flagged(self, backend, name):
        # raising the coefficient of x (or y) leaves the main share as dealt,
        # so only the row and column checks can catch it
        rng = SeededRng(f"deal-check-{backend.name}-{name}")
        commitment, deals = avss_deal(backend.scalar(5), 2, 4, rng, backend)
        honest = deals[0]
        coeffs = getattr(honest, name).coefficients
        bad = replace(honest, **{name: Polynomial((coeffs[0], coeffs[1] + 1))})
        assert (bad.share(), bad.a_prime.evaluate(0)) == (honest.share(), honest.a_prime.evaluate(0))
        assert not NodeRecovery(1, commitment).accept_deal(bad)
        held = {d.recipient: d for d in deals}
        held[1] = bad
        results = avss_exchange_and_interpolate(commitment, held, 4)
        assert all(r.flagged == set() for r in results.values())
        assert results[1].share() == honest.share()

    def test_wrong_recipient_or_size_rejected_without_raising(self, toy, rng):
        commitment, deals = avss_deal(toy.scalar(5), 2, 4, rng, toy)
        node = NodeRecovery(1, commitment)
        mine = deals[0]
        short = Polynomial(mine.a.coefficients[:1])
        padded = Polynomial(mine.b.coefficients + (toy.scalar(0),))
        padded_prime = Polynomial(mine.b_prime.coefficients + (toy.scalar(0),))
        assert not node.accept_deal(deals[1])
        assert not node.accept_deal(replace(mine, a=short))
        assert not node.accept_deal(replace(mine, b=padded, b_prime=padded_prime))
        assert not node.complete
        assert node.accept_deal(mine)

    def test_accepted_deal_is_kept_as_is(self, backend, rng):
        commitment, deals = avss_deal(backend.scalar(5), 3, 4, rng, backend)
        node = NodeRecovery(2, commitment)
        assert node.accept_deal(deals[1])
        assert node.deal is deals[1] and node.complete
        assert node.share() == deals[1].share()

    def test_rebuilt_deal_holds_the_dealers_polynomials(self, backend):
        rng = SeededRng(f"rebuilt-{backend.name}")
        commitment, deals = avss_deal(backend.scalar(5), 3, 5, rng, backend)
        node = NodeRecovery(5, commitment)
        for sender in (1, 2, 3):
            node.receive(exchange_messages(deals[sender - 1], [5])[0])
        rebuilt = node.deal
        assert rebuilt.recipient == 5 and rebuilt.commitment == commitment
        for name in self.POLYS:
            assert getattr(rebuilt, name).coefficients == getattr(deals[4], name).coefficients
        assert NodeRecovery(5, commitment).accept_deal(rebuilt)
