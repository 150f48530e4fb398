"""Command line interface: fit, predict, eval, bench.

Heavy imports happen inside main() after argument parsing so that
--single-thread can pin the BLAS thread pools before numpy loads.
"""

import argparse
import os
import sys

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _add_config_flags(p):
    p.add_argument("--wmin", type=int, default=None, help="smallest window length")
    p.add_argument("--wmax", type=int, default=None, help="largest window length")
    p.add_argument("--chi", type=float, default=None, help="feature filter threshold")
    p.add_argument("--alphabet", type=int, default=None, help="symbols per position")
    p.add_argument("--word-lengths", default=None,
                   help="comma-separated candidate word lengths, e.g. 4,6,8")
    p.add_argument("--folds", type=int, default=None, help="cross-validation folds")
    p.add_argument("--seed", type=int, default=None, help="fold shuffling seed")
    p.add_argument("--no-bigrams", action="store_true",
                   help="drop predecessor-pair features")
    p.add_argument("--unsupervised", action="store_true",
                   help="first-l coefficients and equi-depth bins")
    p.add_argument("--single-window", type=int, default=None, metavar="W",
                   help="use only window length W")


def _add_common(p):
    p.add_argument("--single-thread", action="store_true",
                   help="pin numeric libraries to one thread")


def build_parser():
    parser = argparse.ArgumentParser(prog="weaselts",
                                     description="Window-word time series classifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fit = sub.add_parser("fit", help="train a model and save it")
    p_fit.add_argument("--train", required=True)
    p_fit.add_argument("--model", required=True, help="output model path")
    _add_config_flags(p_fit)
    _add_common(p_fit)

    p_pred = sub.add_parser("predict", help="print one label per input row")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--test", required=True,
                        help="series file; first column is ignored")
    _add_common(p_pred)

    p_eval = sub.add_parser("eval", help="accuracy on a labeled test file")
    p_eval.add_argument("--train", default=None)
    p_eval.add_argument("--test", required=True)
    p_eval.add_argument("--model", default=None, help="reuse a saved model")
    p_eval.add_argument("--baseline", choices=["ed"], default=None,
                        help="score a baseline instead")
    _add_config_flags(p_eval)
    _add_common(p_eval)

    p_bench = sub.add_parser("bench", help="run dataset directories, emit CSV")
    p_bench.add_argument("dirs", nargs="+", help="directories with TRAIN/TEST files")
    p_bench.add_argument("--out", default=None, help="CSV output path")
    p_bench.add_argument("--baseline", choices=["ed"], default=None)
    _add_config_flags(p_bench)
    _add_common(p_bench)
    return parser


def _config_from(args):
    from .weasel import WeaselConfig

    kwargs = {}
    if args.wmin is not None:
        kwargs["w_min"] = args.wmin
    if args.wmax is not None:
        kwargs["w_max"] = args.wmax
    if args.chi is not None:
        kwargs["chi_threshold"] = args.chi
    if args.alphabet is not None:
        kwargs["alphabet"] = args.alphabet
    if args.word_lengths is not None:
        kwargs["word_lengths"] = tuple(
            int(tok) for tok in args.word_lengths.split(",") if tok.strip())
    if args.folds is not None:
        kwargs["folds"] = args.folds
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.single_window is not None:
        kwargs["w_min"] = kwargs["w_max"] = args.single_window
    return WeaselConfig(bigrams=not args.no_bigrams,
                        supervised=not args.unsupervised, **kwargs)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.single_thread:
        for var in _THREAD_VARS:
            os.environ.setdefault(var, "1")

    from .errors import WeaselError

    try:
        return _dispatch(args)
    except WeaselError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args) -> int:
    if args.command == "fit":
        from .ucr import load_ucr_file
        from .weasel import fit_weasel, save_model

        model = fit_weasel(load_ucr_file(args.train), _config_from(args))
        save_model(model, args.model)
        print(f"word length {model.word_length}, "
              f"{model.features_post} of {model.features_pre} features kept")
        return 0

    if args.command == "predict":
        from .ucr import load_ucr_file
        from .weasel import load_model

        model = load_model(args.model)
        data = load_ucr_file(args.test)
        for label in model.predict_many(data.series):
            print(label)
        return 0

    if args.command == "eval":
        from .ucr import load_ucr_file

        test = load_ucr_file(args.test)
        if args.baseline == "ed":
            if args.train is None:
                print("error: --baseline ed needs --train", file=sys.stderr)
                return 1
            from .harness import nn_accuracy

            acc = nn_accuracy(load_ucr_file(args.train), test)
        else:
            if args.model is not None:
                from .weasel import load_model

                model = load_model(args.model)
            elif args.train is None:
                print("error: eval needs --model or --train", file=sys.stderr)
                return 1
            else:
                from .weasel import fit_weasel

                model = fit_weasel(load_ucr_file(args.train), _config_from(args))
            hits = sum(p == lab for p, lab in
                       zip(model.predict_many(test.series), test.labels))
            acc = hits / len(test.labels)
        print(f"accuracy {acc:.4f}")
        return 0

    if args.command == "bench":
        from .harness import run_benchmark

        report = run_benchmark(
            args.dirs, _config_from(args),
            baseline_ed=args.baseline == "ed",
            log=lambda msg: print(msg, file=sys.stderr))
        if args.out is not None:
            report.save(args.out)
        else:
            print(report.emit(), end="")
        if not report.rows:
            return 2
        return 0

    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
