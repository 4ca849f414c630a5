## Synthetic data with a confounded group attribute, plus the metric bundle.
##
## The generator plants a group effect of strength beta in the outcome and
## lets the group itself depend on the covariates (confounding), so a
## classifier that never sees the group column still learns a group-skewed
## score.  We fit a plain BCE network, estimate propensities on the train
## half, calibrate them, and report the five held-out measures.

import numpy as np

from fairfront import (
    NetworkConfig,
    PropensityConfig,
    SplitPlan,
    TrainConfig,
    calibrate_temperature,
    evaluate_test_metrics,
    fit_network,
    generate_synthetic,
    make_splits,
    predict_propensity,
    train_propensity,
)

ds = generate_synthetic(n=2400, p=8, bias_strength=3.0, confounding=2.0, seed=11)
rate1 = ds.labels[ds.sensitives == 1].mean()
rate0 = ds.labels[ds.sensitives == 0].mean()
print(f"{ds.n_rows} rows, {ds.n_features} features")
print(f"positive rate by group: a=1 {rate1:.3f}, a=0 {rate0:.3f} (gap {rate1 - rate0:+.3f})")

plan = SplitPlan(num_splits=1, train_fraction=0.5, master_seed=7)
train_rows, test_rows = make_splits(ds.n_rows, plan, sensitives=ds.sensitives, labels=ds.labels)[0]

# plain risk-only classifier, groups never enter the features
net = NetworkConfig(layer_sizes=[ds.n_features, 8, 1], dropout_prob=0.2)
# fit_network trains a stack of networks of one architecture on one feature
# matrix, with per-network lists of the rest; this is a stack of one, with
# its (init seed, loop seed) pair
(fit,) = fit_network(ds.features[train_rows], [ds.labels[train_rows].astype(float)], net,
                     TrainConfig(epochs=80, batch_size=128), [(1, 2)])
print(f"trained {len(net.layer_sizes) - 1}-layer net, final train objective {fit.epoch_objectives[-1]:.4f}")

# propensity on the train half, temperature fitted on a held-back slice
n_cal = len(train_rows) // 5
fit_rows, cal_rows = train_rows[:-n_cal], train_rows[-n_cal:]
(prop,) = train_propensity(ds.features[fit_rows], [ds.sensitives[fit_rows].astype(float)],
                           PropensityConfig(hidden_layers=2, hidden_width=16, epochs=60, batch_size=128),
                           seed=[3])
prop = calibrate_temperature(prop, ds.features[cal_rows], ds.sensitives[cal_rows].astype(float))
print(f"propensity temperature after calibration: {prop.temperature:.3f}")

e_test = predict_propensity(prop, ds.features[test_rows])
metrics = evaluate_test_metrics(fit.params, net, ds.features[test_rows],
                                ds.sensitives[test_rows], ds.labels[test_rows], e_test)
print()
print("held-out metrics of the risk-only classifier:")
for name in ("r_test", "u_ato", "mv_dp", "mv_eo", "mv_eopp"):
    print(f"  {name:8s} {metrics[name]:.5f}")
print()
print("u_ato is the causal contrast the sweep's penalty targets; the mv_*")
print("indices are observational parity measures reported for comparison.")
