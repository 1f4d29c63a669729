"""Inverse-kinodynamics workbench.

Simulates a small car with speed-dependent yaw slip, records joystick/IMU
style logs, aligns them into a training set, fits a small MLP that inverts
the slip, and evaluates the correction closed-loop (circle tests and gated
drift replays).
"""

from .align import (AlignedDataset, DelayEstimate, build_dataset,
                    delay_from_scan, estimate_delay, histogram,
                    prune_zero_curvature, scan_delays)
from .datalog import (ImuLog, JoyLog, read_imu_csv, read_joy_csv, trim_idle,
                      write_imu_csv, write_joy_csv)
from .errors import (CorruptLogError, FitError, IkdError, InferenceError,
                     InsufficientOverlapError, ParseError, ValidationError)
from .evalkit import (CircleReport, ClearanceReport, DriftScenario, Rect,
                      circle_test, drift_eval, emit_report, fit_circle)
from .ikd import (CorrectionResult, av_from_vc, c_from_av_v, correct,
                  correct_batch)
from .mlp import (AdamState, LossCurve, MlpParams, TrainConfig, adamw_step,
                  forward, init_params, load_model, loss_and_grads,
                  save_model, train)
from .replay import CommandBuffer, execute_replay, next_command, read_buffer_txt
from .simcore import (AV_LIMIT, EPS_V, V_CAP, ControlScript, ScriptSegment,
                      SimTrace, SlipParams, VehicleState, emit_sensor_logs,
                      normalize_heading, record_logs, run_scenario)

__version__ = "0.1.0"
