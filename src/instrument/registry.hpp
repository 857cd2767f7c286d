// Per-process registry of instrumentation components. Probes and the
// coordinator look sensors/actuators up by id; policy compilation resolves
// attributes to the sensor monitoring them. Sensors may appear and disappear
// at run time (hotplug): listeners such as the coordinator are told on every
// add/remove so comparisons follow the fleet.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "instrument/actuator.hpp"
#include "instrument/sensor.hpp"

namespace softqos::instrument {

class SensorRegistry {
 public:
  /// Hotplug notifications. During onSensorRemoved the sensor object is
  /// still alive (the registry drops its reference only after every
  /// listener ran), so listeners may uninstall comparisons from it.
  class Listener {
   public:
    virtual ~Listener() = default;
    virtual void onSensorAdded(Sensor& sensor) { (void)sensor; }
    virtual void onSensorRemoved(Sensor& sensor) { (void)sensor; }
  };

  /// Register a sensor; the registry shares ownership. Re-registering an id
  /// replaces the previous sensor (listeners see a remove then an add).
  void addSensor(std::shared_ptr<Sensor> sensor);
  void addActuator(std::shared_ptr<Actuator> actuator);

  /// Deregister a sensor at run time (hotplug departure). Listeners are
  /// notified before the reference is dropped; the sensor is returned so a
  /// caller keeping it alive can re-add it later. nullptr: unknown id.
  std::shared_ptr<Sensor> removeSensor(const std::string& id);

  /// Listeners are notified in subscription order; they must outlive their
  /// subscription (or removeListener first).
  void addListener(Listener* listener);
  void removeListener(Listener* listener);

  [[nodiscard]] Sensor* sensor(const std::string& id) const;
  [[nodiscard]] Actuator* actuator(const std::string& id) const;

  /// First registered sensor whose attribute matches (registration order).
  [[nodiscard]] Sensor* sensorForAttribute(const std::string& attribute) const;

  [[nodiscard]] std::vector<std::string> sensorIds() const;
  [[nodiscard]] std::size_t sensorCount() const { return sensors_.size(); }

 private:
  void notifyAdded(Sensor& sensor);
  void notifyRemoved(Sensor& sensor);

  std::map<std::string, std::shared_ptr<Sensor>> sensors_;
  std::vector<std::string> order_;  // registration order for attribute lookup
  std::map<std::string, std::shared_ptr<Actuator>> actuators_;
  std::vector<Listener*> listeners_;
};

}  // namespace softqos::instrument
