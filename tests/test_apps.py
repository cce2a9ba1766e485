"""Tests for the four use-case applications."""

import numpy as np
import pytest

from repro.apps.airquality import (
    DecisionPolicy,
    ForecastCorrector,
    Site,
    WeatherParams,
    campaign_cost,
    direction_error_deg,
    peak_concentration,
    plan_days,
    plume_concentration,
    receptor_grid,
    stability_class,
)
from repro.apps.energy import (
    KernelRidge,
    WindFarm,
    backtest,
    synthesize_history,
    update_frequency_study,
)
from repro.apps.traffic import (
    GaussianMixture1D,
    RoadNetwork,
    SegmentSpeedModel,
    SpeedCNN,
    SpeedProfile,
    departure_profile,
    generate_fcd,
    match_one,
    matching_accuracy,
    origin_destination_matrix,
    ptdr_montecarlo,
    synthetic_segment_models,
)
from repro.apps.traffic.models import diurnal_congestion
from repro.apps.traffic.ptdr import ptdr_flops_per_sample
from repro.apps.wrf import (
    AtmosphereState,
    GridSpec,
    ThreeDVar,
    WRFProxy,
    prepare_inputs,
    run_ensemble,
    synthetic_observations,
    tau_major_ekl,
    tau_major_reference,
)
from repro.apps.wrf.rrtmg import tau_major_vectorized


class TestWRFProxy:
    def test_three_rrtmg_implementations_agree(self):
        state = AtmosphereState.standard()
        inputs = prepare_inputs(state, band=2)
        reference = tau_major_reference(inputs)
        np.testing.assert_allclose(tau_major_vectorized(inputs), reference)
        np.testing.assert_allclose(tau_major_ekl(inputs), reference)

    def test_radiation_fraction_near_thirty_percent(self):
        model = WRFProxy(AtmosphereState.standard())
        model.run(5)
        assert 0.15 <= model.radiation_fraction() <= 0.5

    def test_step_advances_time_and_stays_finite(self):
        model = WRFProxy(AtmosphereState.standard(GridSpec(10, 10, 4)))
        state = model.run(10)
        assert state.time_hours == pytest.approx(10 / 60)
        assert np.isfinite(state.temperature).all()
        assert np.isfinite(state.humidity).all()

    def test_assimilation_reduces_error(self):
        truth = AtmosphereState.standard(GridSpec(12, 12, 6), seed=9)
        background = truth.perturbed(1.0, seed=5)
        da = ThreeDVar()
        observations = synthetic_observations(truth, 80, seed=1)
        analysis = da.assimilate(background, observations)
        assert da.analysis_error(analysis, truth) \
            < da.analysis_error(background, truth)

    def test_ensemble_spread_grows_with_perturbation(self):
        initial = AtmosphereState.standard(GridSpec(10, 10, 4))
        small = run_ensemble(initial, members=4, steps=2,
                             perturbation=0.1, seed=0)
        large = run_ensemble(initial, members=4, steps=2,
                             perturbation=1.0, seed=0)
        assert large.spread_field("temperature").mean() \
            > small.spread_field("temperature").mean()

    def test_surface_wind_speed_members(self):
        grid = GridSpec(10, 8, 4)
        ensemble = run_ensemble(AtmosphereState.standard(grid), members=3,
                                steps=1, perturbation=0.5, seed=0)
        speeds = ensemble.surface_wind_speed_members(3)
        assert speeds.shape == (3,) + ensemble.members[0].wind_speed_at(3).shape
        np.testing.assert_array_equal(
            speeds, np.stack([m.wind_speed_at(3) for m in ensemble.members]))

    def test_wind_diagnostics(self):
        state = AtmosphereState.standard()
        speed = state.wind_speed_at(2)
        direction = state.wind_direction_at(2)
        assert (speed >= 0).all()
        assert ((0 <= direction) & (direction < 360)).all()


class TestEnergy:
    def test_power_curve_regions(self):
        farm = WindFarm()
        curve = farm.turbine
        assert curve.power_kw(1.0) == 0.0
        assert curve.power_kw(30.0) == 0.0
        assert 0 < curve.power_kw(8.0) < curve.rated_kw
        assert curve.power_kw(15.0) == curve.rated_kw

    def test_hub_height_extrapolation(self):
        farm = WindFarm()
        assert farm.wind_at_hub(8.0) > 8.0

    def test_kernel_ridge_fits_smooth_function(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(-2, 2, (200, 1))
        y = np.sin(2 * X[:, 0]) + rng.normal(0, 0.05, 200)
        model = KernelRidge(alpha=1e-2, gamma=2.0).fit(X, y)
        grid = np.linspace(-2, 2, 50)[:, None]
        error = np.abs(model.predict(grid) - np.sin(2 * grid[:, 0]))
        assert error.mean() < 0.1

    def test_backtest_beats_persistence(self):
        farm = WindFarm()
        history = synthesize_history(farm, hours=24 * 100, seed=2)
        result = backtest(history, farm)
        assert result.improvement > 0.1
        assert result.rmse_mw >= result.mae_mw

    def test_staler_forecasts_hurt(self):
        farm = WindFarm()
        history = synthesize_history(farm, hours=24 * 100, seed=3)
        errors = update_frequency_study(history, farm, ages=(1, 24))
        assert errors[1] < errors[24]


class TestAirQuality:
    def test_stability_classes(self):
        assert stability_class(1.0, daytime=True) == "A"
        assert stability_class(6.0, daytime=True) == "D"
        assert stability_class(1.0, daytime=False) == "F"

    def test_plume_is_downwind(self):
        grid = receptor_grid(3000.0, 31)
        conc = plume_concentration(grid, 100.0, 5.0, 270.0, Site())
        X, Y = grid
        east = conc[X > 500].sum()
        west = conc[X < -500].sum()
        assert east > west * 10  # westerly wind blows the plume east

    def test_concentration_scales_with_emission(self):
        site = Site()
        low = peak_concentration(100.0, 4.0, 180.0, site)
        high = peak_concentration(1000.0, 4.0, 180.0, site)
        assert high == pytest.approx(10 * low, rel=1e-6)

    def test_corrector_reduces_direction_error(self):
        rng = np.random.default_rng(5)
        n = 300
        truth = WeatherParams(
            temperature_10m=288 + rng.normal(0, 3, n),
            wind_speed=np.abs(rng.normal(6, 2, n)),
            wind_direction=rng.uniform(0, 360, n),
        )
        bias_dir = 25.0
        mean = WeatherParams(
            temperature_10m=truth.temperature_10m + 1.5,
            wind_speed=truth.wind_speed * 1.2,
            wind_direction=(truth.wind_direction + bias_dir) % 360,
        )
        spread = WeatherParams(
            temperature_10m=np.full(n, 0.5),
            wind_speed=np.full(n, 0.4),
            wind_direction=np.full(n, 10.0),
        )
        corrector = ForecastCorrector().fit(mean, spread, truth)
        corrected = corrector.correct(mean, spread)
        raw_error = direction_error_deg(mean.wind_direction,
                                        truth.wind_direction).mean()
        new_error = direction_error_deg(corrected.wind_direction,
                                        truth.wind_direction).mean()
        assert new_error < raw_error
        assert np.abs(corrected.wind_speed - truth.wind_speed).mean() \
            < np.abs(mean.wind_speed - truth.wind_speed).mean()

    def test_decision_campaign_costs(self):
        rng = np.random.default_rng(6)
        days = 10
        wind = rng.uniform(2, 8, days)
        direction = rng.uniform(0, 360, days)
        emissions = rng.uniform(50, 400, days)
        policy = DecisionPolicy(limit_g_m3=2e-5)
        plans = plan_days(wind, direction, wind, direction, emissions,
                          Site(), policy)
        costs = campaign_cost(plans)
        assert costs["total_eur"] >= 0
        assert costs["reduction_days"] == sum(p.reduce for p in plans)


class TestTraffic:
    def test_map_matching_accuracy(self):
        network = RoadNetwork(6, 6, seed=4)
        rng = np.random.default_rng(7)
        accuracies = []
        for _ in range(4):
            route = network.random_route(rng)
            trajectory = generate_fcd(network, route, rng)
            matched = match_one(trajectory, network)
            accuracies.append(matching_accuracy(matched, trajectory))
        assert np.mean(accuracies) > 0.7

    def test_matched_speeds_plausible(self):
        network = RoadNetwork(5, 5, seed=1)
        rng = np.random.default_rng(2)
        route = network.random_route(rng)
        trajectory = generate_fcd(network, route, rng)
        matched = match_one(trajectory, network)
        assert len(matched.speeds_ms) == len(matched.segments)
        assert all(0 <= s <= 40 for s in matched.speeds_ms)

    def test_gmm_recovers_two_modes(self):
        rng = np.random.default_rng(0)
        data = np.concatenate([rng.normal(5, 1, 300),
                               rng.normal(13, 1.5, 300)])
        mixture = GaussianMixture1D(2, seed=0).fit(data)
        means = np.sort(mixture.means)
        assert abs(means[0] - 5) < 0.5
        assert abs(means[1] - 13) < 0.7

    def test_gmm_sampling_matches_mean(self):
        rng = np.random.default_rng(1)
        data = rng.normal(10, 2, 500)
        mixture = GaussianMixture1D(2, seed=0).fit(data)
        samples = mixture.sample(2000, rng)
        assert abs(samples.mean() - 10) < 0.5

    def test_speed_profile_binning(self):
        observations = [(8 * 3600.0, 5.0), (8 * 3600.0 + 100, 7.0),
                        (20 * 3600.0, 13.0)]
        profile = SpeedProfile.from_observations(0, observations, 14.0)
        assert profile.speed_at(8 * 3600.0) == 6.0
        assert profile.speed_at(20 * 3600.0) == 13.0
        assert profile.speed_at(3 * 3600.0) == 14.0  # free flow fallback

    def test_cnn_learns_diurnal_pattern(self):
        t = np.arange(600) * 900.0
        series = 13 * np.array([diurnal_congestion(x) for x in t])
        series += np.random.default_rng(3).normal(0, 0.3, len(t))
        cnn = SpeedCNN(window=16, seed=0)
        losses = cnn.fit(series, epochs=10, lr=3e-3)
        assert losses[-1] < losses[0] * 0.8
        prediction = cnn.predict_speed(series[:32])
        assert 0 < prediction < 20

    def test_ptdr_peak_slower_than_night(self):
        network = RoadNetwork(5, 5, seed=3)
        rng = np.random.default_rng(4)
        route = network.random_route(rng)
        models = synthetic_segment_models(network, route, seed=1)
        peak = ptdr_montecarlo(models, 8 * 3600.0, samples=600, seed=0)
        night = ptdr_montecarlo(models, 3 * 3600.0, samples=600, seed=0)
        assert peak.median_s > night.median_s
        assert peak.percentile_s(95) >= peak.median_s

    def test_ptdr_flops_per_sample(self):
        network = RoadNetwork(5, 5, seed=3)
        route = network.random_route(np.random.default_rng(4))
        models = synthetic_segment_models(network, route, seed=1)
        assert len(models) > 0
        assert ptdr_flops_per_sample(models) == 12 * len(models)
        assert ptdr_flops_per_sample([]) == 0

    def _time_invariant_models(self, segments=4):
        """Segment models whose speed distribution ignores the clock, so
        any correlation between departures is purely RNG-stream reuse."""
        return [
            SegmentSpeedModel(
                length_m=500.0,
                interval_mean=np.full(96, 12.0),
                interval_std=np.full(96, 1.5),
            )
            for _ in range(segments)
        ]

    def test_departure_profile_deterministic(self):
        models = self._time_invariant_models()
        a = departure_profile(models, [0.0, 450.0], samples=100, seed=7)
        b = departure_profile(models, [0.0, 450.0], samples=100, seed=7)
        for dep in a:
            np.testing.assert_array_equal(a[dep].samples_s,
                                          b[dep].samples_s)

    def test_subsecond_departures_get_distinct_streams(self):
        # Regression: seeds were derived as seed + int(departure), so
        # departures 100.0, 100.25 and 100.75 all truncated to the same
        # stream and produced identical Monte-Carlo draws.
        models = self._time_invariant_models()
        profile = departure_profile(models, [100.0, 100.25, 100.75],
                                    samples=200, seed=0)
        drawn = [profile[dep].samples_s for dep in (100.0, 100.25, 100.75)]
        assert not np.array_equal(drawn[0], drawn[1])
        assert not np.array_equal(drawn[1], drawn[2])

    def test_seed_departure_pairs_do_not_collide(self):
        # Regression: (seed=0, dep=900) used to reuse (seed=900, dep=0)'s
        # stream — with time-invariant models the two sweeps returned
        # bitwise-identical samples.
        models = self._time_invariant_models()
        a = departure_profile(models, [900.0], samples=300,
                              seed=0)[900.0].samples_s
        b = departure_profile(models, [0.0], samples=300,
                              seed=900)[0.0].samples_s
        assert not np.array_equal(a, b)

    def test_odm_conserves_trips(self):
        network = RoadNetwork(4, 4)
        odm = origin_destination_matrix(network, trips=5000, zones=6,
                                        seed=0)
        assert odm.sum() == 5000
        assert odm.shape == (6, 6)
