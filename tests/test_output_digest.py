import output_digest


def test_the_output_digest_is_the_same_on_a_second_run():
    # a digest that differed between runs in one process could not tell
    # two checkouts apart
    first = output_digest.digest()
    assert len(first) == 64
    assert output_digest.digest() == first
