//! MAVLink message definitions.
//!
//! The subset of common-dialect messages AnDrone's flight path
//! exercises: heartbeats, mode changes, commands, guided position
//! targets, telemetry, and geofence status text. Payload fields are
//! encoded little-endian in declaration order (we do not reproduce
//! MAVLink's size-sorted field reordering; the framing, checksums,
//! and semantics are faithful).

use crate::error::MavError;
use crate::wire;

/// ArduPilot Copter flight modes (the `custom_mode` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlightMode {
    /// Manual angle control with self-leveling.
    Stabilize,
    /// Altitude-held manual control.
    AltHold,
    /// Autonomous mission execution.
    Auto,
    /// Accepts position/velocity targets from a companion.
    Guided,
    /// Holds position and altitude.
    Loiter,
    /// Returns to launch and lands.
    Rtl,
    /// Descends and disarms.
    Land,
}

impl FlightMode {
    /// ArduPilot Copter custom mode number.
    pub fn custom_mode(self) -> u32 {
        match self {
            FlightMode::Stabilize => 0,
            FlightMode::AltHold => 2,
            FlightMode::Auto => 3,
            FlightMode::Guided => 4,
            FlightMode::Loiter => 5,
            FlightMode::Rtl => 6,
            FlightMode::Land => 9,
        }
    }

    /// Parses an ArduPilot Copter custom mode number.
    pub fn from_custom_mode(m: u32) -> Result<Self, MavError> {
        Ok(match m {
            0 => FlightMode::Stabilize,
            2 => FlightMode::AltHold,
            3 => FlightMode::Auto,
            4 => FlightMode::Guided,
            5 => FlightMode::Loiter,
            6 => FlightMode::Rtl,
            9 => FlightMode::Land,
            other => return Err(MavError::UnknownMode(other)),
        })
    }

    /// All modes (for whitelist templates).
    pub const ALL: [FlightMode; 7] = [
        FlightMode::Stabilize,
        FlightMode::AltHold,
        FlightMode::Auto,
        FlightMode::Guided,
        FlightMode::Loiter,
        FlightMode::Rtl,
        FlightMode::Land,
    ];
}

/// MAV_CMD command ids used by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MavCmd {
    /// MAV_CMD_NAV_WAYPOINT (16).
    NavWaypoint,
    /// MAV_CMD_NAV_RETURN_TO_LAUNCH (20).
    NavReturnToLaunch,
    /// MAV_CMD_NAV_LAND (21).
    NavLand,
    /// MAV_CMD_NAV_TAKEOFF (22).
    NavTakeoff,
    /// MAV_CMD_CONDITION_YAW (115).
    ConditionYaw,
    /// MAV_CMD_DO_SET_MODE (176).
    DoSetMode,
    /// MAV_CMD_DO_MOUNT_CONTROL (205) — gimbal.
    DoMountControl,
    /// MAV_CMD_COMPONENT_ARM_DISARM (400).
    ComponentArmDisarm,
}

impl MavCmd {
    /// Numeric MAV_CMD id.
    pub fn id(self) -> u16 {
        match self {
            MavCmd::NavWaypoint => 16,
            MavCmd::NavReturnToLaunch => 20,
            MavCmd::NavLand => 21,
            MavCmd::NavTakeoff => 22,
            MavCmd::ConditionYaw => 115,
            MavCmd::DoSetMode => 176,
            MavCmd::DoMountControl => 205,
            MavCmd::ComponentArmDisarm => 400,
        }
    }

    /// Parses a numeric MAV_CMD id.
    pub fn from_id(id: u16) -> Result<Self, MavError> {
        Ok(match id {
            16 => MavCmd::NavWaypoint,
            20 => MavCmd::NavReturnToLaunch,
            21 => MavCmd::NavLand,
            22 => MavCmd::NavTakeoff,
            115 => MavCmd::ConditionYaw,
            176 => MavCmd::DoSetMode,
            205 => MavCmd::DoMountControl,
            400 => MavCmd::ComponentArmDisarm,
            other => return Err(MavError::UnknownCommand(other)),
        })
    }

    /// All commands (for whitelist templates).
    pub const ALL: [MavCmd; 8] = [
        MavCmd::NavWaypoint,
        MavCmd::NavReturnToLaunch,
        MavCmd::NavLand,
        MavCmd::NavTakeoff,
        MavCmd::ConditionYaw,
        MavCmd::DoSetMode,
        MavCmd::DoMountControl,
        MavCmd::ComponentArmDisarm,
    ];
}

/// MAV_RESULT values for COMMAND_ACK.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MavResult {
    /// Command accepted and executed.
    Accepted,
    /// Command valid but denied (the VFC's answer to off-whitelist
    /// or off-waypoint commands).
    Denied,
    /// Command failed during execution.
    Failed,
}

impl MavResult {
    fn to_u8(self) -> u8 {
        match self {
            MavResult::Accepted => 0,
            MavResult::Denied => 2,
            MavResult::Failed => 4,
        }
    }

    fn from_u8(v: u8) -> Result<Self, MavError> {
        Ok(match v {
            0 => MavResult::Accepted,
            2 => MavResult::Denied,
            4 => MavResult::Failed,
            other => return Err(MavError::Malformed(format!("bad MAV_RESULT {other}"))),
        })
    }
}

/// The message set.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// HEARTBEAT (0): sent at 1 Hz by every component.
    Heartbeat {
        /// Current flight mode.
        mode: FlightMode,
        /// Whether the vehicle is armed.
        armed: bool,
        /// MAV_STATE (3 = standby, 4 = active).
        system_status: u8,
    },
    /// SYS_STATUS (1): battery and load.
    SysStatus {
        /// Battery voltage, millivolts.
        voltage_mv: u16,
        /// Battery current, centiamps.
        current_ca: i16,
        /// Remaining battery, percent.
        battery_remaining: i8,
    },
    /// SET_MODE (11).
    SetMode {
        /// Requested mode.
        mode: FlightMode,
    },
    /// ATTITUDE (30).
    Attitude {
        /// Milliseconds since boot.
        time_boot_ms: u32,
        /// Roll, radians.
        roll: f32,
        /// Pitch, radians.
        pitch: f32,
        /// Yaw, radians.
        yaw: f32,
    },
    /// GLOBAL_POSITION_INT (33).
    GlobalPositionInt {
        /// Milliseconds since boot.
        time_boot_ms: u32,
        /// Latitude, degE7.
        lat: i32,
        /// Longitude, degE7.
        lon: i32,
        /// Altitude above ground, millimeters.
        relative_alt: i32,
        /// Ground X speed, cm/s.
        vx: i16,
        /// Ground Y speed, cm/s.
        vy: i16,
        /// Ground Z speed, cm/s.
        vz: i16,
    },
    /// COMMAND_LONG (76).
    CommandLong {
        /// The command.
        command: MavCmd,
        /// Parameters 1-7 (meaning per command).
        params: [f32; 7],
    },
    /// COMMAND_ACK (77).
    CommandAck {
        /// The command being acknowledged.
        command: MavCmd,
        /// Result.
        result: MavResult,
    },
    /// SET_POSITION_TARGET_GLOBAL_INT (86): guided-mode target.
    SetPositionTargetGlobalInt {
        /// Latitude, degE7.
        lat: i32,
        /// Longitude, degE7.
        lon: i32,
        /// Altitude, meters.
        alt: f32,
        /// Desired ground speed toward the target, m/s.
        speed: f32,
    },
    /// MISSION_COUNT (44): announces a mission upload of `count`
    /// items.
    MissionCount {
        /// Number of items to follow.
        count: u16,
    },
    /// MISSION_REQUEST_INT (51): the vehicle asks for item `seq`.
    MissionRequestInt {
        /// Item index requested.
        seq: u16,
    },
    /// MISSION_ITEM_INT (73): one mission waypoint.
    MissionItemInt {
        /// Item index.
        seq: u16,
        /// Latitude, degE7.
        lat: i32,
        /// Longitude, degE7.
        lon: i32,
        /// Altitude, meters.
        alt: f32,
    },
    /// MISSION_ACK (47): upload outcome (0 = MAV_MISSION_ACCEPTED).
    MissionAck {
        /// MAV_MISSION_RESULT value.
        result: u8,
    },
    /// STATUSTEXT (253): notifications (geofence breach etc.).
    StatusText {
        /// MAV_SEVERITY (0 emergency .. 6 info).
        severity: u8,
        /// The text (truncated to 50 bytes on the wire).
        text: String,
    },
}

impl Message {
    /// MAVLink message id.
    pub fn msg_id(&self) -> u8 {
        match self {
            Message::Heartbeat { .. } => 0,
            Message::SysStatus { .. } => 1,
            Message::SetMode { .. } => 11,
            Message::Attitude { .. } => 30,
            Message::GlobalPositionInt { .. } => 33,
            Message::MissionCount { .. } => 44,
            Message::MissionAck { .. } => 47,
            Message::MissionRequestInt { .. } => 51,
            Message::MissionItemInt { .. } => 73,
            Message::CommandLong { .. } => 76,
            Message::CommandAck { .. } => 77,
            Message::SetPositionTargetGlobalInt { .. } => 86,
            Message::StatusText { .. } => 253,
        }
    }

    /// Per-message CRC_EXTRA seed byte.
    pub fn crc_extra(msg_id: u8) -> Result<u8, MavError> {
        Ok(match msg_id {
            0 => 50,
            1 => 124,
            11 => 89,
            30 => 39,
            33 => 104,
            44 => 221,
            47 => 153,
            51 => 196,
            73 => 38,
            76 => 152,
            77 => 143,
            86 => 5,
            253 => 83,
            other => return Err(MavError::UnknownMessage(other)),
        })
    }

    /// CRC_EXTRA of this message. Infallible: [`Message::msg_id`]
    /// only returns ids present in the [`Message::crc_extra`] table,
    /// so the encoder needs no `expect` (dronelint R3).
    pub fn own_crc_extra(&self) -> u8 {
        match Self::crc_extra(self.msg_id()) {
            Ok(extra) => extra,
            // Unreachable by construction; a stable (wrong) byte here
            // still fails checksums loudly rather than panicking the
            // flight path.
            Err(_) => {
                debug_assert!(false, "own msg_id missing from CRC_EXTRA table");
                0
            }
        }
    }

    /// Serializes the payload (little-endian, declaration order).
    pub fn encode_payload(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_payload_into(&mut out);
        out
    }

    /// Appends the payload [`Message::encode_payload`] returns to
    /// `out`, so a caller encoding many messages can reuse one
    /// buffer.
    pub fn encode_payload_into(&self, out: &mut Vec<u8>) {
        match self {
            Message::Heartbeat {
                mode,
                armed,
                system_status,
            } => {
                out.extend(mode.custom_mode().to_le_bytes());
                out.push(u8::from(*armed));
                out.push(*system_status);
            }
            Message::SysStatus {
                voltage_mv,
                current_ca,
                battery_remaining,
            } => {
                out.extend(voltage_mv.to_le_bytes());
                out.extend(current_ca.to_le_bytes());
                out.push(wire::i8_bits(*battery_remaining));
            }
            Message::SetMode { mode } => out.extend(mode.custom_mode().to_le_bytes()),
            Message::Attitude {
                time_boot_ms,
                roll,
                pitch,
                yaw,
            } => {
                out.extend(time_boot_ms.to_le_bytes());
                out.extend(roll.to_le_bytes());
                out.extend(pitch.to_le_bytes());
                out.extend(yaw.to_le_bytes());
            }
            Message::GlobalPositionInt {
                time_boot_ms,
                lat,
                lon,
                relative_alt,
                vx,
                vy,
                vz,
            } => {
                out.extend(time_boot_ms.to_le_bytes());
                out.extend(lat.to_le_bytes());
                out.extend(lon.to_le_bytes());
                out.extend(relative_alt.to_le_bytes());
                out.extend(vx.to_le_bytes());
                out.extend(vy.to_le_bytes());
                out.extend(vz.to_le_bytes());
            }
            Message::MissionCount { count } => out.extend(count.to_le_bytes()),
            Message::MissionRequestInt { seq } => out.extend(seq.to_le_bytes()),
            Message::MissionItemInt { seq, lat, lon, alt } => {
                out.extend(seq.to_le_bytes());
                out.extend(lat.to_le_bytes());
                out.extend(lon.to_le_bytes());
                out.extend(alt.to_le_bytes());
            }
            Message::MissionAck { result } => out.push(*result),
            Message::CommandLong { command, params } => {
                out.extend(command.id().to_le_bytes());
                for p in params {
                    out.extend(p.to_le_bytes());
                }
            }
            Message::CommandAck { command, result } => {
                out.extend(command.id().to_le_bytes());
                out.push(result.to_u8());
            }
            Message::SetPositionTargetGlobalInt {
                lat,
                lon,
                alt,
                speed,
            } => {
                out.extend(lat.to_le_bytes());
                out.extend(lon.to_le_bytes());
                out.extend(alt.to_le_bytes());
                out.extend(speed.to_le_bytes());
            }
            Message::StatusText { severity, text } => {
                out.push(*severity);
                let bytes = text.as_bytes();
                let n = bytes.len().min(50);
                out.push(wire::len8(n));
                out.extend(&bytes[..n]);
            }
        }
    }

    /// Deserializes a payload for `msg_id`.
    pub fn decode_payload(msg_id: u8, p: &[u8]) -> Result<Message, MavError> {
        let mut r = Reader { p, off: 0 };
        let msg = match msg_id {
            0 => Message::Heartbeat {
                mode: FlightMode::from_custom_mode(r.u32()?)?,
                armed: r.u8()? != 0,
                system_status: r.u8()?,
            },
            1 => Message::SysStatus {
                voltage_mv: r.u16()?,
                current_ca: r.i16()?,
                battery_remaining: wire::u8_bits(r.u8()?),
            },
            11 => Message::SetMode {
                mode: FlightMode::from_custom_mode(r.u32()?)?,
            },
            30 => Message::Attitude {
                time_boot_ms: r.u32()?,
                roll: r.f32()?,
                pitch: r.f32()?,
                yaw: r.f32()?,
            },
            33 => Message::GlobalPositionInt {
                time_boot_ms: r.u32()?,
                lat: r.i32()?,
                lon: r.i32()?,
                relative_alt: r.i32()?,
                vx: r.i16()?,
                vy: r.i16()?,
                vz: r.i16()?,
            },
            44 => Message::MissionCount { count: r.u16()? },
            47 => Message::MissionAck { result: r.u8()? },
            51 => Message::MissionRequestInt { seq: r.u16()? },
            73 => Message::MissionItemInt {
                seq: r.u16()?,
                lat: r.i32()?,
                lon: r.i32()?,
                alt: r.f32()?,
            },
            76 => {
                let command = MavCmd::from_id(r.u16()?)?;
                let mut params = [0f32; 7];
                for p in &mut params {
                    *p = r.f32()?;
                }
                Message::CommandLong { command, params }
            }
            77 => Message::CommandAck {
                command: MavCmd::from_id(r.u16()?)?,
                result: MavResult::from_u8(r.u8()?)?,
            },
            86 => Message::SetPositionTargetGlobalInt {
                lat: r.i32()?,
                lon: r.i32()?,
                alt: r.f32()?,
                speed: r.f32()?,
            },
            253 => {
                let severity = r.u8()?;
                let n = usize::from(r.u8()?);
                let bytes = r.take(n)?;
                Message::StatusText {
                    severity,
                    text: String::from_utf8_lossy(bytes).into_owned(),
                }
            }
            other => return Err(MavError::UnknownMessage(other)),
        };
        if r.off != p.len() {
            return Err(MavError::Malformed("trailing payload bytes".into()));
        }
        Ok(msg)
    }
}

struct Reader<'a> {
    p: &'a [u8],
    off: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], MavError> {
        if self.off + n > self.p.len() {
            return Err(MavError::Malformed("payload too short".into()));
        }
        let s = &self.p[self.off..self.off + n];
        self.off += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, MavError> {
        Ok(self.take(1)?[0])
    }
    fn take2(&mut self) -> Result<[u8; 2], MavError> {
        let s = self.take(2)?;
        Ok([s[0], s[1]])
    }
    fn take4(&mut self) -> Result<[u8; 4], MavError> {
        let s = self.take(4)?;
        Ok([s[0], s[1], s[2], s[3]])
    }
    fn u16(&mut self) -> Result<u16, MavError> {
        Ok(u16::from_le_bytes(self.take2()?))
    }
    fn i16(&mut self) -> Result<i16, MavError> {
        Ok(i16::from_le_bytes(self.take2()?))
    }
    fn u32(&mut self) -> Result<u32, MavError> {
        Ok(u32::from_le_bytes(self.take4()?))
    }
    fn i32(&mut self) -> Result<i32, MavError> {
        Ok(i32::from_le_bytes(self.take4()?))
    }
    fn f32(&mut self) -> Result<f32, MavError> {
        Ok(f32::from_le_bytes(self.take4()?))
    }
}

/// Converts degrees to MAVLink's degE7 fixed point.
pub fn deg_to_e7(deg: f64) -> i32 {
    wire::e7_from_deg(deg)
}

/// Converts degE7 fixed point back to degrees.
pub fn e7_to_deg(e7: i32) -> f64 {
    f64::from(e7) / 1e7
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: Message) {
        let payload = msg.encode_payload();
        let back = Message::decode_payload(msg.msg_id(), &payload).unwrap();
        assert_eq!(msg, back);
    }

    #[test]
    fn all_messages_round_trip() {
        round_trip(Message::Heartbeat {
            mode: FlightMode::Guided,
            armed: true,
            system_status: 4,
        });
        round_trip(Message::SysStatus {
            voltage_mv: 12_400,
            current_ca: 2_150,
            battery_remaining: 87,
        });
        round_trip(Message::SetMode {
            mode: FlightMode::Loiter,
        });
        round_trip(Message::Attitude {
            time_boot_ms: 123_456,
            roll: 0.1,
            pitch: -0.05,
            yaw: 1.2,
        });
        round_trip(Message::GlobalPositionInt {
            time_boot_ms: 99,
            lat: deg_to_e7(43.6084298),
            lon: deg_to_e7(-85.8110359),
            relative_alt: 15_000,
            vx: 120,
            vy: -80,
            vz: 0,
        });
        round_trip(Message::CommandLong {
            command: MavCmd::NavTakeoff,
            params: [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 15.0],
        });
        round_trip(Message::CommandAck {
            command: MavCmd::NavTakeoff,
            result: MavResult::Denied,
        });
        round_trip(Message::SetPositionTargetGlobalInt {
            lat: deg_to_e7(43.6),
            lon: deg_to_e7(-85.8),
            alt: 20.0,
            speed: 5.0,
        });
        round_trip(Message::StatusText {
            severity: 2,
            text: "geofence breach".into(),
        });
        round_trip(Message::MissionCount { count: 3 });
        round_trip(Message::MissionRequestInt { seq: 1 });
        round_trip(Message::MissionItemInt {
            seq: 2,
            lat: deg_to_e7(43.6),
            lon: deg_to_e7(-85.8),
            alt: 20.0,
        });
        round_trip(Message::MissionAck { result: 0 });
    }

    #[test]
    fn truncated_payload_is_rejected() {
        let msg = Message::Attitude {
            time_boot_ms: 1,
            roll: 0.0,
            pitch: 0.0,
            yaw: 0.0,
        };
        let payload = msg.encode_payload();
        assert!(Message::decode_payload(30, &payload[..payload.len() - 1]).is_err());
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let msg = Message::SetMode {
            mode: FlightMode::Auto,
        };
        let mut payload = msg.encode_payload();
        payload.push(0);
        assert!(Message::decode_payload(11, &payload).is_err());
    }

    #[test]
    fn status_text_truncates_at_50_bytes() {
        let long = "x".repeat(80);
        let msg = Message::StatusText {
            severity: 6,
            text: long,
        };
        let payload = msg.encode_payload();
        let back = Message::decode_payload(253, &payload).unwrap();
        match back {
            Message::StatusText { text, .. } => assert_eq!(text.len(), 50),
            _ => unreachable!(),
        }
    }

    #[test]
    fn deg_e7_round_trip() {
        let d = 43.6084298;
        assert!((e7_to_deg(deg_to_e7(d)) - d).abs() < 1e-7);
    }

    #[test]
    fn unknown_ids_error() {
        assert!(Message::decode_payload(200, &[]).is_err());
        assert!(MavCmd::from_id(9_999).is_err());
        assert!(FlightMode::from_custom_mode(42).is_err());
        assert!(Message::crc_extra(200).is_err());
    }

    /// One message of every variant, including a `StatusText` long
    /// enough to be truncated on the wire.
    fn every_variant() -> Vec<Message> {
        vec![
            Message::Heartbeat {
                mode: FlightMode::Guided,
                armed: true,
                system_status: 4,
            },
            Message::SysStatus {
                voltage_mv: 12_400,
                current_ca: -2_150,
                battery_remaining: -1,
            },
            Message::SetMode {
                mode: FlightMode::Loiter,
            },
            Message::Attitude {
                time_boot_ms: 123_456,
                roll: 0.1,
                pitch: -0.05,
                yaw: 1.2,
            },
            Message::GlobalPositionInt {
                time_boot_ms: 99,
                lat: deg_to_e7(43.6084298),
                lon: deg_to_e7(-85.8110359),
                relative_alt: 15_000,
                vx: 120,
                vy: -80,
                vz: 0,
            },
            Message::MissionCount { count: 3 },
            Message::MissionAck { result: 0 },
            Message::MissionRequestInt { seq: 1 },
            Message::MissionItemInt {
                seq: 2,
                lat: deg_to_e7(43.6),
                lon: deg_to_e7(-85.8),
                alt: 20.0,
            },
            Message::CommandLong {
                command: MavCmd::NavTakeoff,
                params: [0.0, -1.5, 0.0, 0.0, 0.0, 0.0, 15.0],
            },
            Message::CommandAck {
                command: MavCmd::NavTakeoff,
                result: MavResult::Denied,
            },
            Message::SetPositionTargetGlobalInt {
                lat: deg_to_e7(43.6),
                lon: deg_to_e7(-85.8),
                alt: 20.0,
                speed: 5.0,
            },
            Message::StatusText {
                severity: 2,
                text: "geofence breach".into(),
            },
            Message::StatusText {
                severity: 6,
                text: "y".repeat(80),
            },
        ]
    }

    #[test]
    fn encode_payload_into_appends_exactly_the_payload() {
        let prefix = [0xAA, 0x55];
        let mut buf = Vec::new();
        for msg in every_variant() {
            buf.clear();
            buf.extend(prefix);
            msg.encode_payload_into(&mut buf);
            assert_eq!(buf[..2], prefix, "{msg:?} touched the prefix");
            assert_eq!(buf[2..], msg.encode_payload()[..], "{msg:?}");
        }
        let truncated = Message::StatusText {
            severity: 6,
            text: "y".repeat(80),
        };
        buf.clear();
        truncated.encode_payload_into(&mut buf);
        assert_eq!(buf.len(), 2 + 50);
    }

    /// Recorded before `encode_payload` delegated to an appending
    /// encoder: the wire form of every variant must not move.
    #[test]
    fn payload_bytes_are_pinned() {
        let mut all = Vec::new();
        for msg in every_variant() {
            all.push(msg.msg_id());
            all.extend(msg.encode_payload());
        }
        // FNV-1a over the concatenated id + payload stream.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in &all {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        assert_eq!((all.len(), h), (204, 1_700_318_743_660_089_054));
    }
}
