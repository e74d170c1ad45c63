import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mamimo.channel import (
    SPEED_OF_LIGHT,
    ChannelConfig,
    NoiseSpec,
    Scatterer,
    add_noise,
    load_scatterers,
    los_channel,
    multipath_channel,
    pilot_frequencies,
    synthesize_sample,
)
from mamimo.geometry import build_topology
from mamimo.model import ArrayGeometry, Position3, RadioConfig


def single_element(x=0.0, y=0.0, z=0.0):
    return ArrayGeometry(np.array([[x, y, z]]))


class TestPilotFrequencies:
    def test_first_pilot_of_user_zero(self, radio):
        f = pilot_frequencies(radio, 0)
        # 600 subcarrier spacings below the carrier
        assert f[0] == pytest.approx(2.61e9 - 600 * 15e3)
        assert f[0] == pytest.approx(2.601e9)

    def test_adjacent_pilot_spacing(self, radio):
        f = pilot_frequencies(radio, 0)
        assert np.all(np.diff(f) == pytest.approx(12 * 15e3))

    def test_strictly_increasing(self, radio):
        f = pilot_frequencies(radio, 7)
        assert np.all(np.diff(f) > 0)

    def test_users_disjoint(self, radio):
        f0 = set(pilot_frequencies(radio, 0))
        f1 = set(pilot_frequencies(radio, 1))
        assert not f0 & f1

    def test_partition_of_all_subcarriers(self, radio):
        union = set()
        for user in range(radio.interleave_factor):
            freqs = pilot_frequencies(radio, user)
            assert len(freqs) == radio.pilot_count
            union.update(freqs)
        assert len(union) == radio.total_subcarriers

    def test_user_out_of_range(self, radio):
        with pytest.raises(ValueError):
            pilot_frequencies(radio, 12)
        with pytest.raises(ValueError):
            pilot_frequencies(radio, -1)


class TestLosChannel:
    def test_friis_magnitude_at_one_metre(self, radio):
        # pilot 50 of user 0 lands exactly on the carrier
        geom = single_element()
        sample = los_channel(geom, Position3(0.0, 1000.0, 0.0), radio)
        lam = SPEED_OF_LIGHT / 2.61e9  # independent of the implementation
        assert lam == pytest.approx(0.11486, abs=1e-5)
        expected = lam / (4.0 * math.pi * 1.0)
        assert abs(sample.h[0, 50]) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(9.140e-3, abs=1e-6)

    def test_doubling_distance_halves_magnitude(self, radio):
        geom = single_element()
        near = los_channel(geom, Position3(0.0, 1000.0, 0.0), radio)
        far = los_channel(geom, Position3(0.0, 2000.0, 0.0), radio)
        assert np.allclose(np.abs(near.h), 2.0 * np.abs(far.h), rtol=1e-14)

    def test_phase_zero_at_integer_wavelengths(self, radio):
        geom = single_element()
        lam_mm = SPEED_OF_LIGHT / pilot_frequencies(radio, 0)[0] * 1000.0
        sample = los_channel(geom, Position3(0.0, 10 * lam_mm, 0.0), radio)
        phase = math.remainder(cmath.phase(sample.h[0, 0]), 2 * math.pi)
        assert abs(phase) < 1e-9

    def test_zero_distance_rejected(self, radio):
        geom = single_element()
        with pytest.raises(ValueError):
            los_channel(geom, Position3(0.0, 0.0, 0.0), radio)

    def test_label_set_to_user_position(self, radio, ura_small):
        pos = Position3(10.0, 1500.0, 1000.0)
        assert los_channel(ura_small, pos, radio).label == pos

    @given(d_mm=st.floats(100.0, 50_000.0), pilot=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_magnitude_identity(self, d_mm, pilot):
        # |h| * d * 4pi / lambda == 1 for a single isotropic element
        radio = RadioConfig()
        geom = single_element()
        sample = los_channel(geom, Position3(0.0, d_mm, 0.0), radio)
        lam = SPEED_OF_LIGHT / pilot_frequencies(radio, 0)[pilot]
        identity = abs(sample.h[0, pilot]) * (d_mm / 1000.0) * 4.0 * math.pi / lam
        assert identity == pytest.approx(1.0, abs=1e-12)


class TestMultipathChannel:
    def test_no_scatterers_equals_los(self, fast_radio, ura_small):
        user = Position3(0.0, 2000.0, 1000.0)
        for geom in (ura_small, build_topology("da")):
            los = los_channel(geom, user, fast_radio, user_id=5)
            multi = multipath_channel(geom, user, fast_radio, ChannelConfig(), [], user_id=5)
            assert np.array_equal(los.h, multi.h)

    def test_zero_reflection_equals_los(self, fast_radio, ura_small):
        user = Position3(0.0, 2000.0, 1000.0)
        sc = Scatterer(Position3(500.0, 1500.0, 1000.0), 0j)
        los = los_channel(ura_small, user, fast_radio)
        multi = multipath_channel(ura_small, user, fast_radio, ChannelConfig(), [sc])
        assert np.allclose(los.h, multi.h, rtol=0, atol=0)

    def test_two_ray_against_hand_summed_oracle(self, radio):
        geom = single_element()
        user = Position3(300.0, 2200.0, 0.0)
        sc = Scatterer(Position3(-400.0, 1100.0, 250.0), 0.4 - 0.3j)
        sample = multipath_channel(geom, user, radio, ChannelConfig(), [sc])
        freqs = pilot_frequencies(radio, 0)
        # independent scalar two-ray sum
        d_los = math.dist((0, 0, 0), (0.3, 2.2, 0.0))
        d1 = math.dist((0, 0, 0), (-0.4, 1.1, 0.25))
        d2 = math.dist((-0.4, 1.1, 0.25), (0.3, 2.2, 0.0))
        for k in (0, 37, 99):
            lam = SPEED_OF_LIGHT / freqs[k]
            direct = lam / (4 * math.pi * d_los) * cmath.exp(-2j * math.pi * freqs[k] * d_los / SPEED_OF_LIGHT)
            bounced = ((0.4 - 0.3j) * lam / (4 * math.pi * (d1 + d2))
                       * cmath.exp(-2j * math.pi * freqs[k] * (d1 + d2) / SPEED_OF_LIGHT))
            expected = direct + bounced
            assert abs(sample.h[0, k] - expected) <= 1e-12 * abs(expected)

    def test_superposition_is_linear(self, fast_radio, ura_small):
        user = Position3(100.0, 2500.0, 1000.0)
        a = Scatterer(Position3(900.0, 1300.0, 1000.0), 0.5 + 0.1j)
        b = Scatterer(Position3(-700.0, 1800.0, 500.0), -0.2 + 0.6j)
        cfg = ChannelConfig()
        los = los_channel(ura_small, user, fast_radio)
        both = multipath_channel(ura_small, user, fast_radio, cfg, [a, b])
        only_a = multipath_channel(ura_small, user, fast_radio, cfg, [a])
        only_b = multipath_channel(ura_small, user, fast_radio, cfg, [b])
        recombined = only_a.h + only_b.h - los.h
        assert np.max(np.abs(both.h - recombined)) <= 1e-12 * np.max(np.abs(both.h))

    def test_los_term_can_be_disabled(self, fast_radio, ura_small):
        user = Position3(100.0, 2500.0, 1000.0)
        sc = Scatterer(Position3(900.0, 1300.0, 1000.0), 0.5j)
        cfg = ChannelConfig(include_los=False)
        scattered_only = multipath_channel(ura_small, user, fast_radio, cfg, [sc])
        full = multipath_channel(ura_small, user, fast_radio, ChannelConfig(), [sc])
        los = los_channel(ura_small, user, fast_radio)
        assert np.allclose(scattered_only.h, full.h - los.h, atol=1e-18)

    @pytest.mark.parametrize("user, point, message", [
        (Position3(0.0, 0.0, 0.0), Position3(500.0, 1500.0, 0.0), "user position coincides"),
        (Position3(0.0, 2000.0, 0.0), Position3(0.0, 0.0, 0.0), "scatterer coincides"),
        (Position3(0.0, 2000.0, 0.0), Position3(0.0, 2000.0, 0.0), "scatterer coincides"),
    ], ids=["user-on-element", "scatterer-on-element", "scatterer-on-user"])
    def test_coincident_points_rejected(self, radio, user, point, message):
        with pytest.raises(ValueError, match=message):
            multipath_channel(single_element(), user, radio, ChannelConfig(),
                              [Scatterer(point, 0.5)])

    def test_reflection_magnitude_capped(self):
        with pytest.raises(ValueError):
            Scatterer(Position3(0, 0, 0), 1.5 + 0j)

    @pytest.mark.parametrize("gamma", [complex(math.nan, 0.0), complex(0.0, math.nan),
                                       complex(math.inf, 0.0)], ids=["nan", "nan-imag", "inf"])
    def test_non_finite_reflection_rejected(self, gamma):
        with pytest.raises(ValueError, match="finite"):
            Scatterer(Position3(0, 0, 0), gamma)


SCATTERERS = [Scatterer(Position3(-1800.0, 2600.0, 1400.0), 0.6 - 0.2j),
              Scatterer(Position3(1500.0, 3900.0, 600.0), -0.3 + 0.45j)]


def closed_form_channel(geom, user, radio, user_id, include_los, scatterers):
    """h[m, k] = sum over paths of Gamma lambda_k / (4 pi d) exp(-j 2 pi f_k d / c),
    written out here independently of mamimo.channel."""
    c = 299_792_458.0
    k = np.arange(radio.pilot_count)
    f = radio.carrier_hz + (radio.interleave_factor * k + user_id
                            - radio.total_subcarriers / 2) * radio.subcarrier_spacing_hz
    elems = geom.positions_mm / 1000.0
    u = np.array([user.x, user.y, user.z]) / 1000.0

    def path(d):  # (M,) path lengths in metres -> (M, F)
        return (c / f)[None, :] / (4 * np.pi * d[:, None]) * np.exp(-2j * np.pi * np.outer(d, f) / c)

    h = np.zeros((len(elems), len(f)), dtype=complex)
    if include_los:
        h += path(np.sqrt(((u - elems) ** 2).sum(axis=1)))
    for sc in scatterers:
        s = np.array([sc.position.x, sc.position.y, sc.position.z]) / 1000.0
        d1 = np.sqrt(((s - elems) ** 2).sum(axis=1))
        h += sc.reflection * path(d1 + np.sqrt(((u - s) ** 2).sum()))
    return h


def extended_precision_channel(geom, user, radio, user_id, include_los, scatterers):
    """The closed form in np.longdouble (80-bit on x86), one direct exp per entry."""
    ld = np.longdouble
    c, pi = ld(299_792_458), 4 * np.arctan(ld(1))
    k = np.arange(radio.pilot_count)
    f = ld(radio.carrier_hz) + (radio.interleave_factor * k + user_id
                                - radio.total_subcarriers // 2).astype(ld) * ld(radio.subcarrier_spacing_hz)
    elems = geom.positions_mm.astype(ld) / 1000
    u = np.array([user.x, user.y, user.z], dtype=ld) / 1000

    def path(d):  # (M,) path lengths in metres -> (M, F)
        phase = -2 * pi * np.outer(d, f) / c
        return (c / f)[None, :] / (4 * pi * d[:, None]) * (np.cos(phase) + 1j * np.sin(phase))

    h = np.zeros((len(elems), len(f)), dtype=np.clongdouble)
    if include_los:
        h += path(np.sqrt(((u - elems) ** 2).sum(axis=1)))
    for sc in scatterers:
        s = np.array([sc.position.x, sc.position.y, sc.position.z], dtype=ld) / 1000
        d1 = np.sqrt(((s - elems) ** 2).sum(axis=1))
        h += np.clongdouble(sc.reflection) * path(d1 + np.sqrt(((u - s) ** 2).sum()))
    return h


class TestFieldKernel:
    """The factored-phase kernel against the closed form, on the cases where a
    coarse x fine split of the pilots could go wrong."""

    @pytest.mark.parametrize("radio_kw, kind, user, user_id, include_los, n_scatterers", [
        (dict(total_subcarriers=84, pilot_count=7, interleave_factor=12), "ura",
         Position3(240.0, 2870.0, 1130.0), 3, True, 2),
        (dict(total_subcarriers=12, pilot_count=1, interleave_factor=12), "ura",
         Position3(240.0, 2870.0, 1130.0), 0, True, 2),
        ({}, "ura", Position3(-610.0, 1940.0, 420.0), 11, True, 2),
        ({}, "ura", Position3(300.0, 50_000.0, 1000.0), 5, True, 2),
        ({}, "ula", Position3(240.0, 2870.0, 1130.0), 7, True, 2),
        ({}, "ura", Position3(240.0, 2870.0, 1130.0), 7, False, 1),
    ], ids=["7-pilots", "1-pilot", "user-11", "50m", "ula", "nlos+1"])
    def test_matches_closed_form(self, radio_kw, kind, user, user_id, include_los, n_scatterers):
        radio = RadioConfig(**radio_kw)
        geom = build_topology(kind)
        scatterers = SCATTERERS[:n_scatterers]
        sample = multipath_channel(geom, user, radio, ChannelConfig(include_los=include_los),
                                   scatterers, user_id=user_id)
        ref = closed_form_channel(geom, user, radio, user_id, include_los, scatterers)
        assert sample.h.shape == (geom.n_elements, radio.pilot_count)
        assert np.max(np.abs(sample.h - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("kind", ["ura", "ula", "da"])
    @pytest.mark.parametrize("pilots", [100, 50])  # 50 is not a square: 8 x 7 factors, trimmed
    @pytest.mark.parametrize("users, bound", [
        ([Position3(100.0, 800.0, 1050.0), Position3(240.0, 2000.0, 1130.0),
          Position3(-410.0, 1500.0, 620.0), Position3(300.0, 2900.0, 1400.0)], 1e-13),
        ([Position3(300.0, 30_000.0, 1000.0), Position3(-2500.0, 40_000.0, 1800.0),
          Position3(1200.0, 50_000.0, 600.0)], 3e-12),
    ], ids=["near", "far"])
    def test_within_rounding_of_an_extended_precision_reference(self, kind, pilots, users,
                                                                 bound):
        # a phase rounds to about eps * 2 pi f d / c, so the bound grows with the path:
        # the scatterers stand in the user area, near paths stay within about 5 m
        radio = RadioConfig(total_subcarriers=12 * pilots, pilot_count=pilots)
        geom = build_topology(kind)
        room = [Scatterer(Position3(-300.0, 2300.0, 1500.0), 0.6 - 0.2j),
                Scatterer(Position3(500.0, 1700.0, 700.0), -0.3 + 0.45j),
                Scatterer(Position3(100.0, 2600.0, 1900.0), 0.35 + 0.3j)]
        for i, user in enumerate(users):
            for include_los, n_scatterers in [(True, 0), (True, 1), (True, 3), (False, 1),
                                              (False, 2), (False, 3)]:
                user_id = (5 * i + n_scatterers) % radio.interleave_factor
                sample = multipath_channel(geom, user, radio, ChannelConfig(include_los),
                                           room[:n_scatterers], user_id=user_id)
                ref = extended_precision_channel(geom, user, radio, user_id, include_los,
                                                 room[:n_scatterers])
                err = np.abs(sample.h.astype(np.clongdouble) - ref)
                assert float(err.max()) <= bound * float(np.abs(ref).max())

    def test_one_multipath_call_per_sample(self, monkeypatch, fast_radio, ura_small):
        # bench --trace 1 counts channel.synth_ms and channel.paths per call of
        # these two functions, so a sample must pass through exactly one of them
        from mamimo import channel

        calls = {"los_channel": 0, "multipath_channel": 0}

        def counted(name):
            inner = getattr(channel, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(channel, name, counted(name))
        for scatterers in ((), SCATTERERS):
            calls.update(dict.fromkeys(calls, 0))
            synthesize_sample(ura_small, Position3(0.0, 2000.0, 1000.0), fast_radio, scatterers,
                              snr_db=20.0, seed=1, stream=1)
            assert calls == {"los_channel": 0, "multipath_channel": 1}


class TestSynthesizeSample:
    @pytest.mark.parametrize("kind", ["ura", "da"])
    @pytest.mark.parametrize("include_los, n_scatterers", [(True, 0), (True, 2), (False, 2)],
                             ids=["los", "los+2", "nlos+2"])
    def test_matches_closed_form(self, radio, kind, include_los, n_scatterers):
        geom = build_topology(kind)
        user = Position3(240.0, 2870.0, 1130.0)
        scatterers = SCATTERERS[:n_scatterers]
        if include_los:
            sample = synthesize_sample(geom, user, radio, scatterers, snr_db=math.inf,
                                       seed=3, stream=1, user_id=7, sample_id="000042")
        else:  # only multipath_channel can drop the LoS path
            sample = multipath_channel(geom, user, radio, ChannelConfig(include_los=False),
                                       scatterers, user_id=7, sample_id="000042")
        ref = closed_form_channel(geom, user, radio, 7, include_los, scatterers)
        assert np.max(np.abs(sample.h - ref)) <= 1e-12 * np.max(np.abs(ref))
        assert (sample.label, sample.user_id, sample.sample_id) == (user, 7, "000042")

    def test_noise_seeded_by_seed_stream_and_sample_id(self, fast_radio, ura_small):
        user = Position3(0.0, 2000.0, 1000.0)
        noisy = synthesize_sample(ura_small, user, fast_radio, snr_db=10.0, seed=9,
                                  stream=4, sample_id="00a1_-")
        clean = los_channel(ura_small, user, fast_radio, sample_id="00a1_-")
        key = int.from_bytes(b"00a1_-", "big")
        assert np.array_equal(noisy.h, add_noise(clean, NoiseSpec(10.0, (9, 4, key))).h)


class TestAddNoise:
    def test_infinite_snr_is_identity(self, fast_radio, ura_small):
        sample = los_channel(ura_small, Position3(0, 2000, 1000), fast_radio)
        assert add_noise(sample, NoiseSpec(math.inf)) is sample

    def test_fixed_seed_reproducible(self, fast_radio, ura_small):
        sample = los_channel(ura_small, Position3(0, 2000, 1000), fast_radio)
        a = add_noise(sample, NoiseSpec(10.0, seed=42))
        b = add_noise(sample, NoiseSpec(10.0, seed=42))
        assert np.array_equal(a.h, b.h)
        c = add_noise(sample, NoiseSpec(10.0, seed=43))
        assert not np.array_equal(a.h, c.h)

    def test_zero_db_noise_power_within_five_percent(self, rng):
        # 100 x 1000 = 1e5 entries
        h = rng.standard_normal((100, 1000)) + 1j * rng.standard_normal((100, 1000))
        from mamimo.model import CsiSample

        sample = CsiSample(h)
        noisy = add_noise(sample, NoiseSpec(0.0, seed=7))
        noise_power = np.mean(np.abs(noisy.h - sample.h) ** 2)
        signal_power = np.mean(np.abs(sample.h) ** 2)
        assert noise_power == pytest.approx(signal_power, rel=0.05)

    def test_metadata_preserved(self, fast_radio, ura_small):
        sample = los_channel(ura_small, Position3(0, 2000, 1000), fast_radio,
                             user_id=3, sample_id="aaa111")
        noisy = add_noise(sample, NoiseSpec(20.0, seed=1))
        assert noisy.user_id == 3 and noisy.sample_id == "aaa111"
        assert noisy.label == sample.label


class TestScattererCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "scatterers.csv"
        path.write_text("x_mm,y_mm,z_mm,gamma_re,gamma_im\n"
                        "# a comment line\n1.5,-2.0,3.25,0.5,-0.25\n0,0,10,0,1\n")
        assert load_scatterers(path) == [Scatterer(Position3(1.5, -2.0, 3.25), 0.5 - 0.25j),
                                         Scatterer(Position3(0, 0, 10), 1j)]

    def test_malformed_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:1: expected 5 columns"):
            load_scatterers(path)

    @pytest.mark.parametrize("row", ["abc", "abc,2,3,0.5,0", "1,2,3,nan,0", "1,2,inf,0.5,0",
                                     "1,nan,3,0.5,0", "1,2,3,0.9,0.9", "1,2,3,,0"])
    def test_bad_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x_mm,y_mm,z_mm,gamma_re,gamma_im\n0,0,10,0,1\n{row}\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:3: "):
            load_scatterers(path)
