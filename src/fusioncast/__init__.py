"""fusioncast: telemetry fusion service and gaze-informed trajectory prediction testbed.

Subsystems:

- ``protocol``   length-prefixed binary wire format for telemetry/prediction frames
- ``geometry``   quaternion/rotation math, heading extraction
- ``sessions``   session buffering, nearest-timestamp alignment, 10 Hz resampling
- ``windows``    observation/horizon windowing and session-level dataset splits
- ``simulate``   synthetic corridor sessions: walkers with anticipatory head/gaze, waypoint robots
- ``predictors`` constant-velocity baseline and ridge regressor over motion/cue features
- ``metrics``    ADE / FDE / KDE negative log-likelihood and evaluation reports

Planned, not yet present:

- ``server``     multi-client TCP fusion server with online prediction
- ``client``     replay clients that stream recorded sessions back to a server
- ``cli``        manifest-driven command line driving the full experiment
"""

__version__ = "0.1.0"
