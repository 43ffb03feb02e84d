"""``tools/ident.py`` on a tiny collection: a saved file compared with
itself shows no difference, and a perturbed copy names the array."""
import numpy as np

from tools.ident import compare, main


def test_save_then_compare_names_only_the_perturbed_array(tmp_path, capsys):
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"
    assert main(["save", str(a), "--scale", "0.02", "--queries", "3"]) == 0
    assert main(["compare", str(a), str(a)]) == 0
    assert capsys.readouterr().out.endswith(" arrays compared; 0 differ\n")

    arrays = dict(np.load(a))
    assert arrays["messi/64/10/i"].shape == (3, 10)
    assert arrays["ucr/10/i"].shape == arrays["flat/10/d"].shape == (3, 10)
    assert len(arrays["sofa/32/50/series_ed_computed"]) == 3
    n_series = len(arrays["sofa_equi_depth/perm"])
    assert arrays["sofa_equi_depth/words"].shape == (n_series, 16)
    assert arrays["sofa_equi_depth/words_perm"].shape == (n_series, 16)
    assert sorted(arrays["sofa_equi_depth/perm"]) == list(range(n_series))
    assert arrays["sofa_equi_depth/leaf_lo"].shape == arrays["sofa_equi_depth/leaf_hi"].shape
    arrays["messi/64/10/series_ed_computed"][1] += 4
    np.savez(b, **arrays)
    assert compare(str(a), str(b)) == [
        "messi/64/10/series_ed_computed: 1 of 3 differ, max |diff| 4, mean "
        f"{arrays['messi/64/10/series_ed_computed'].mean() - 4 / 3:.6g} -> "
        f"{arrays['messi/64/10/series_ed_computed'].mean():.6g}"]
    assert main(["compare", str(a), str(b)]) == 1

    del arrays["sofa/64/perm"]
    np.savez(b, **arrays)
    assert "sofa/64/perm: only in " + str(a) in compare(str(a), str(b))
