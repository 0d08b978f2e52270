import json
import math

from padiclift.bigmath import MR_EXACT_BELOW, _strong_lucas, is_prime
from padiclift.cli import main

# passes Miller-Rabin to the witnesses 2..37, not to 41
PSP_37 = 318665857834031151167461  # 399165290221 * 798330580441
# the least composite that passes every witness 2..41
PSP_41 = 3317044064679887385961981  # 1287836182261 * 2575672364521


def trial_division(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_agrees_with_trial_division_below_1e5():
    assert [n for n in range(10 ** 5) if is_prime(n) != trial_division(n)] == []


def test_strong_pseudoprimes_are_composite():
    assert PSP_37 == 399165290221 * 798330580441
    assert PSP_41 == 1287836182261 * 2575672364521 == MR_EXACT_BELOW
    assert not is_prime(PSP_37)
    assert not is_prime(PSP_41)


def test_strong_lucas_pseudoprimes_below_1e5():
    # the odd composites that pass the Selfridge strong Lucas test (OEIS A217255)
    found = [n for n in range(7, 10 ** 5, 2)
             if math.isqrt(n) ** 2 != n and _strong_lucas(n) != trial_division(n)]
    assert found == [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199,
                     40309, 58519, 75077, 97439]


def test_primes_and_composites_past_the_witness_bound():
    m89, m107, m127 = 2 ** 89 - 1, 2 ** 107 - 1, 2 ** 127 - 1
    assert is_prime(m89) and is_prime(m107) and is_prime(m127)
    assert not is_prime(m89 * m107)
    assert not is_prime(m127 ** 2)
    assert not is_prime(2 ** 101 - 1)  # 7432339208719 * 341117531003194129


def test_cli_classifies_the_pseudoprime_as_composite(capsys):
    rc = main(["classify", "--f0", str(PSP_37), "--f1", "1", "--json"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["classification"] == "ReducibleComposite"
